(** A statistical call-stack profile of the host process, for
    [dsm_run --prof]: a SIGPROF interval timer is asked to fire once per
    millisecond of CPU time, and its handler records
    [Printexc.get_callstack], which walks through the engine's fibers.
    The kernel fires the timer less often than asked (about once per
    4 ms on a Linux host with a 250 Hz tick), so the report prints the
    CPU time between {!start} and {!stop} and the interval the samples
    really had. The report counts, per OCaml function, the samples whose
    stack contains it (inclusive) and those it tops (self). Sampling
    reads no simulated state, so simulated results are unchanged. *)

val start : unit -> unit
(** Discard earlier samples and start the timer. *)

val stop : unit -> unit
(** Stop the timer, restore the default SIGPROF disposition and record
    the process CPU time ([Unix.times], user and system) since {!start};
    the samples stay readable. *)

val pp : Format.formatter -> unit -> unit
(** {!header} for the last {!start}/{!stop} span, then the top 25
    functions by inclusive and by self samples. *)

val header : samples:int -> cpu_s:float -> string
(** The report's first line: the sample count, the CPU seconds they
    span, the measured interval between samples and the requested
    one. *)

val attribute : string list -> string list
(** The stack a sample books, innermost first, given the function names
    of its frames ("?" for a frame without one). The sampler's own frames
    and the nameless frames around them are dropped. A nameless frame
    directly below the sampler's frames is the interrupted function, which
    has no name at the poll point where the signal was taken: it becomes
    the row ["? (in a callee of X)"] on top of the first named frame X
    under it, so the sample is not booked as self time of X. *)
