(** Static sharing-pattern classification and protocol placement.

    The compile-time half of the adaptive backend's online classifier
    ({!Dsm_tmk.Adaptive}): from a model of an application's per-epoch
    shared accesses it computes, per page, the reader and writer
    processor populations of every barrier epoch, applies the online
    decision rule over every classification window the run-time could
    observe, and emits a {!Dsm_tmk.Proto_plan} directive per contiguous
    page run. A directive is [Exact] only when every window agrees and
    every contributing access summary was exact — the condition under
    which seeding the decision is guaranteed to match what the online
    classifier would converge to, so [dsm_run --plan] can skip the
    warm-up switches without changing the final classification. *)

module Pset = Dsm_util.Pset
module Plan = Dsm_tmk.Proto_plan

type model = {
  prog : Dsm_compiler.Ir.program;
      (** steady-state model, cyclic; the loop body must begin with a
          barrier so epochs come out in execution order *)
  init : Dsm_compiler.Ir.program option;
      (** shared accesses before the first barrier, summarized whole *)
  arrays : (string * int list) list;
      (** allocation order and extents, as passed to {!Dsm_tmk.Tmk.Alloc.array} *)
  page_size : int;
}

val layout : (string * int list) list -> Dsm_rsd.Section.array_info list
(** Replica of the deterministic bump allocator: 8-byte-aligned bases in
    allocation order, 8-byte elements. *)

(** {1 The pure decision rule} (exposed for property tests) *)

type acc = {
  mutable readers : Pset.t;
  mutable writers : Pset.t;
  mutable exact : bool;
}

val empty_acc : unit -> acc

val taxonomy : acc -> (Plan.proto * int) option
(** {!Dsm_tmk.Proto_plan.decide}, the decision rule of
    {!Dsm_tmk.Adaptive.reclassify}, over a population: no writers —
    [None]; one writer and no other users — invalidate at the writer; one
    writer with readers — home-based LRC homed at the writer; several
    writers — homeless LRC (owner [-1]). *)

val classify_page :
  window:int ->
  init:acc option ->
  acc array ->
  (Plan.proto * int) option * Plan.confidence * string
(** [classify_page ~window ~init epochs] decides one page from its
    per-epoch populations over one steady cycle (execution order) and
    its pre-first-barrier populations. Exact iff every cyclic window of
    [window] epochs yields one stable decision, the first window (init
    plus leading epochs) agrees, and all populations are exact. *)

(** {1 Whole-model classification} *)

type page_class = {
  page : int;
  array : string;
  decision : (Plan.proto * int) option;
  confidence : Plan.confidence;
  reason : string;
  est_lrc : float;
  est_hlrc : float;
  est_inval : float;
}

val classify : ?window:int -> nprocs:int -> model -> page_class list
(** Every page any processor touches, sorted; [window] defaults to
    {!Dsm_tmk.Proto_plan.window}. *)

val plan :
  ?window:int ->
  program:string ->
  level:string ->
  nprocs:int ->
  model ->
  Plan.t
(** {!classify} coalesced into a validated plan: adjacent pages of one
    array with the same decision, confidence and reason merge into one
    directive, averaging the per-page cost estimates. *)
