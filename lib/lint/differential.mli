(** Static-vs-dynamic differential check.

    Runs a program on the simulated run-time with protocol tracing
    enabled, replays the recorded page accesses
    ({!Dsm_trace.Replay.accesses}), and verifies that every page a
    processor faulted on (or twinned) falls inside that processor's
    static access summary. A page outside the summary means the
    compiler under-approximated the access set — exactly the situation
    in which an inserted [Validate] could miss data and the transformed
    program could read stale values — and is reported as an
    {!Diag.kind.Uncovered_access} error.

    The static side is the per-processor union of every region's read
    and write sections, instantiated against the {e real} array layout
    of the run ({!Dsm_compiler.Interp.outcome.arrays}); a faulted page
    is covered when its byte interval intersects that set. *)

type proc_stat = {
  static_pages : int;  (** pages in the processor's static summary *)
  dynamic_pages : int;  (** distinct pages it touched at run time *)
  covered_pages : int;  (** dynamic pages inside the static summary *)
}

type report = {
  nprocs : int;
  per_proc : proc_stat array;
  diags : Diag.t list;
}

val check :
  program:string ->
  page_size:int ->
  nprocs:int ->
  static:Dsm_rsd.Range.t array ->
  ?page_owner:(int -> string option) ->
  Dsm_trace.Replay.access list ->
  report
(** Pure core: compare replayed accesses against per-processor static
    byte ranges (real addresses). Exposed so tests can seed a truncated
    summary and watch the check fail. *)

val run :
  ?opts:Dsm_compiler.Transform.opts ->
  ?cfg:Dsm_sim.Config.t ->
  Dsm_compiler.Ir.program ->
  nprocs:int ->
  report
(** Transform the program (default {!Dsm_compiler.Transform.all}),
    execute it with tracing, and {!check} the trace against
    {!static_ranges} of the {e original} program. *)

(** {1 Static protocol-plan grading}

    Compares a static protocol-placement plan against what a traced
    adaptive run actually did: the final per-page classification
    ({!Dsm_apps.App_common.result}[.classes]) and every [Proto_switch]
    event. A switch {e away} from an exact-confidence static decision is
    a misprediction even if the run later converged back. *)

type misprediction = {
  mp_page : int;
  mp_array : string;
  mp_expected : string * int;  (** static (protocol, owner) *)
  mp_got : (string * int) option;
      (** final dynamic class; [None] — never left the LRC default *)
  mp_switched : bool;
      (** a [Proto_switch] moved the page off the static decision *)
}

type class_stat = {
  cs_proto : string;
  cs_confidence : Dsm_tmk.Proto_plan.confidence;
  cs_pages : int;
  cs_agreed : int;
}

type grading = {
  exact_pages : int;
  exact_agreed : int;
  inexact_pages : int;
  inexact_agreed : int;
  by_class : class_stat list;  (** per (protocol, confidence) *)
  mispredictions : misprediction list;
      (** exact-confidence pages whose final class disagrees or that
          switched away mid-run *)
}

val grade :
  plan:Dsm_tmk.Proto_plan.t ->
  classes:(int * string * int) list ->
  events:Dsm_trace.Event.t list ->
  grading
(** Inexact pages never yield mispredictions — the plan marked them as
    hints. A page absent from [classes] counts as agreeing only with an
    [lrc] prediction (the adaptive table only holds observed pages). *)
