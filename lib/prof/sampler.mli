(** A statistical call-stack profile of the host process, for
    [dsm_run --prof]: a SIGPROF interval timer fires once per millisecond
    of CPU time and its handler records [Printexc.get_callstack], which
    walks through the engine's fibers. The report counts, per OCaml
    function, the samples whose stack contains it (inclusive) and those
    it tops (self). Sampling reads no simulated state, so simulated
    results are unchanged. *)

val start : unit -> unit
(** Discard earlier samples and start the timer. *)

val stop : unit -> unit
(** Stop the timer and restore the default SIGPROF disposition; the
    samples stay readable. *)

val pp : Format.formatter -> unit -> unit
(** The top 25 functions by inclusive and by self samples. *)

val attribute : string list -> string list
(** The stack a sample books, innermost first, given the function names
    of its frames ("?" for a frame without one). The sampler's own frames
    and the nameless frames around them are dropped. A nameless frame
    directly below the sampler's frames is the interrupted function, which
    has no name at the poll point where the signal was taken: it becomes
    the row ["? (in a callee of X)"] on top of the first named frame X
    under it, so the sample is not booked as self time of X. *)
