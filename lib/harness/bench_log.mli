(** Machine-readable benchmark trajectory.

    Records, for each experiment of a bench run, the host wall-clock time,
    the words allocated, the process-wide peak heap, and an MD5 digest of
    the experiment's formatted output. The digest is the {e simulated-time
    invariance check}: every number an experiment prints is virtual, so two
    builds that disagree on any digest differ in simulated results — a
    correctness bug, not a performance delta.

    A run serializes to [BENCH_<n>.json] (one experiment object per line,
    parseable by {!load}); committing one file per PR gives the repository
    a performance trajectory that tools — and the CI regression gate — can
    diff without scraping logs. *)

type entry = {
  e_name : string;
  e_wall_ms : float;  (** host wall-clock for the experiment *)
  e_alloc_mwords : float;  (** minor+major words allocated, in millions *)
  e_top_heap_words : int;  (** process-wide peak heap after the run *)
  e_digest : string;  (** MD5 (hex) of the experiment's formatted output *)
}

type t

val create : pr:int -> label:string -> quick:bool -> t

val record : t -> entry -> unit
(** Append an entry measured elsewhere. *)

val measure : t -> name:string -> (Format.formatter -> unit) -> string
(** [measure t ~name f] runs [f] against a buffer formatter, appends an
    {!entry} for it, and returns the captured output. *)

val set_prof_invariant : t -> bool -> unit
(** Result of the profiling on/off invariance check: whether enabling
    {!Dsm_prof.Prof} left an experiment's output digest unchanged. *)

val set_profile : t -> string -> unit
(** Attach a {!Dsm_prof.Prof.to_json} per-subsystem profile of a
    representative profiled run; embedded under ["profile"]. *)

val entries : t -> entry list

val min_merge : t -> t -> t
(** Best-of-N de-noising: per experiment (matched by name), keep the faster
    of the two measurements, with the smaller of the two allocations.
    Wall-clock noise on a shared host only ever adds time, so the minimum
    is the stable statistic; allocation is deterministic except that a
    process's first round also fills memoized references, so its minimum
    does not depend on which round ran faster. *)

val total_wall_ms : t -> float
val write : t -> path:string -> unit

val load : path:string -> entry list
(** Parse the experiment entries back from a file {!write} produced (the
    regression gate compares a fresh run against a committed trajectory).
    Raises [Failure] if the file contains no parseable entries. *)

val compare_against :
  Format.formatter -> baseline:entry list -> current:t -> tolerance:float -> bool
(** Compare a fresh run against a loaded baseline, experiment by experiment
    (intersection by name): fails on any output-digest mismatch and when
    the shared total is slower than [baseline * (1 + tolerance)].
    Per-experiment slowdowns are reported but do not gate — short
    experiments are dominated by host noise. Prints a table; returns
    [true] when the run passes. *)
