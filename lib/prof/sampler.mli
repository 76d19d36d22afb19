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
