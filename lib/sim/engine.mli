(** Deterministic scheduler for simulated processors.

    Each simulated processor runs as an OCaml-5 effect-based fiber. A
    fiber that must wait for another processor (barrier arrival, lock
    grant, message receive) performs {!block} with a predicate that some
    {e other} fiber's action will make true; the scheduler suspends it
    and resumes the next runnable fiber. Virtual time lives entirely in
    {!Cluster} — the engine never looks at clocks.

    {2 Execution model and determinism}

    {!run} executes fibers in {e slices}: a slice is the host-time span
    from resuming a fiber to its next [Block] (or its return). Slices
    are scheduled in {e pass order}: repeatedly sweep processors
    [0..nprocs-1], resuming each runnable fiber once per pass. Because
    the programs executed on the DSM are data-race free (conflicting
    accesses are ordered by synchronization), this fixed order at
    blocking points fully determines the result: clocks, statistics,
    memory contents and trace are functions of the configuration alone. *)

exception Deadlock of string
(** Raised when some fibers have not terminated but no fiber can make
    progress: a full pass resumed nothing and every remaining fiber's
    predicate is false. The message lists the blocked processor ids,
    e.g. ["fibers blocked: [1,3]"]. The remaining fibers are unwound (as
    for {!Proc_failure}) before the exception escapes. *)

exception Proc_failure of int * exn
(** An exception escaped processor [p]'s fiber: re-raised as
    [Proc_failure (p, original)] after every suspended sibling fiber
    has been discontinued (unwound through its cleanup handlers), so a
    failing run leaks no continuation and leaves no fiber marked
    running. *)

val block : until:(unit -> bool) -> unit
(** Suspend the calling fiber until [until ()] holds. Must be called
    from within {!run}.

    The predicate is re-evaluated by the scheduler — at least once per
    pass while the fiber is suspended — and must be made true by the
    action of some other fiber (or be immediately true, as in
    {!yield}). It must be pure apart from reading simulator state: it
    can run many times. *)

val yield : unit -> unit
(** Re-enter the scheduler with an immediately-true predicate: every
    other runnable fiber gets one slice before the caller continues.
    Useful to break one processor's long computation into slices that
    interleave deterministically with its peers. *)

val run : nprocs:int -> (int -> unit) -> unit
(** [run ~nprocs main] executes [main p] for [p = 0..nprocs-1] as
    cooperative fibers until all terminate.

    @raise Deadlock if all remaining fibers are blocked on predicates
    that no runnable fiber can satisfy.
    @raise Proc_failure if an exception escapes one of the fibers; the
    remaining fibers are discontinued first. *)
