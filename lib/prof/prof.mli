(** Lightweight self-profiling for the simulator's own host cost.

    The simulator measures {e virtual} time; this module measures the
    {e host} wall-clock and allocation cost of computing it, attributed
    per subsystem. It exists so that optimisation PRs argue from measured
    profiles instead of intuition (see [PERFORMANCE.md]).

    Design constraints:

    - {b Zero cost when disabled.} Every instrumentation site compiles to
      a single load-and-branch on {!val-enabled}; no closure, no
      allocation, no clock read. Profiling defaults to off, so the
      instrumented hot paths run at full speed in normal operation.
    - {b Self-time attribution.} Sections nest ([Engine] runs application
      code that faults into [Protocol] which creates diffs in
      [Diff_create]); an explicit span stack charges each wall-clock and
      allocation slice to the innermost open section, so the report's
      rows are exclusive (self) figures that sum to the enabled
      wall-clock.
    - {b No interference.} Reading the host clock never touches the
      simulated clocks, statistics or trace, so a profiled run produces
      bit-identical simulated results.

    Entry points: [dsm_run --prof] and the bench harness enable
    profiling, run, and print {!pp_table}. *)

(** The instrumented subsystems. *)
type section =
  | Engine  (** fiber scheduling plus un-instrumented application compute *)
  | Protocol  (** LRC fault handling, write notices, diff fetching *)
  | Sync  (** barrier, lock and push operations *)
  | Diff_create  (** twin comparison and diff merging *)
  | Diff_apply  (** applying diff payloads to pages and twins *)
  | Vc  (** vector-clock operations (op-counted, not timed) *)
  | Net  (** reliable-transport layer and cluster cost functions *)
  | Trace  (** event-sink emission (op-counted, not timed) *)

val section_name : section -> string

val enable : unit -> unit
(** Reset all counters and start attributing time slices. *)

val disable : unit -> unit
(** Stop profiling; accumulated figures remain readable. *)

val reset : unit -> unit

val enter : section -> unit
(** Open a span. When profiling is disabled this is one branch. *)

val exit : section -> unit
(** Close the innermost span of this section. Robust against unwinding:
    if intervening spans were abandoned by an exception they are charged
    and popped. *)

val tick : section -> unit
(** Count one operation without timing it — for sub-microsecond paths
    (vector-clock ops, trace emission) where two clock reads would cost
    more than the operation. *)

val span : section -> (unit -> 'a) -> 'a
(** [span s f] = [enter s; f (); exit s], exception-safe. Convenience for
    call sites off the hot path (allocates a closure when enabled). *)

(** One report row; figures are exclusive (self) per section. *)
type row = {
  name : string;
  calls : int;  (** completed [enter]/[exit] spans *)
  ops : int;  (** {!tick} counts *)
  self_s : float;  (** exclusive wall-clock seconds *)
  alloc_mw : float;  (** exclusive minor-heap allocation, millions of words *)
}

val report : unit -> row list * float
(** All rows with any activity — including a synthetic ["(unattributed)"]
    row for time outside every span — plus the total enabled wall-clock
    in seconds. *)

val pp_table : Format.formatter -> unit -> unit
(** The per-subsystem self-time table printed by [dsm_run --prof]. *)

val to_json : unit -> string
(** The same report as a JSON object, embedded in [BENCH_<n>.json]. *)
