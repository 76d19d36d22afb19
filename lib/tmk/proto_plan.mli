(** Versioned protocol-placement plans.

    The artifact connecting [dsm_lint plan] (which classifies every
    shared page's sharing pattern statically and writes a plan) to
    [dsm_run --plan] (which seeds the adaptive backend's initial
    per-page protocol and the HLRC home map from it, replacing the
    online warm-up where the prediction is exact).

    On disk a plan is JSONL: a header object
    [{"plan":"dsm-protocol-plan","version":1,...}] followed by one flat
    object per directive. Page numbers are absolute simulated-heap page
    numbers ([hi_page] inclusive): the bump allocator is deterministic,
    so the compile-time layout replica and the run-time layout agree. *)

val magic : string

val window : int
(** Barrier epochs per classification window: the adaptive backend
    reclassifies its pages once per window, and the static classifier
    judges a decision exact by the same windows. *)

type proto = Lrc | Hlrc | Inval
(** The per-page coherence policy: which protocol governs a page. The
    fixed backends run one for every page; the adaptive backend switches
    pages between them, and a plan directive names one. *)

val proto_name : proto -> string
(** ["lrc"], ["hlrc"] or ["inval"]: the name plans and traces use. *)

val decide :
  readers:Dsm_util.Pset.t ->
  writers:Dsm_util.Pset.t ->
  lrc_owner:int ->
  (proto * int) option
(** The adaptive decision rule over one classification window, with the
    owner it names: [None] when nobody wrote; one writer and no other
    users — invalidate at the writer; one writer with other readers —
    home-based LRC homed at the writer; several writers — homeless LRC,
    owned by [lrc_owner]. The online classifier ({!Adaptive}) and the
    static one ([dsm_lint plan]) both call it. *)

type confidence =
  | Exact  (** every contributing access summary was exact *)
  | Inexact  (** some summary was widened (e.g. under an [If_lt]) *)

val confidence_name : confidence -> string

type directive = {
  array : string;
  lo_page : int;
  hi_page : int;  (** inclusive *)
  proto : proto;
  owner : int;  (** home (hlrc) / holder (inval); -1 under lrc *)
  confidence : confidence;
  reason : string;
  est_lrc : float;  (** cost model: estimated messages/epoch under LRC *)
  est_hlrc : float;
  est_inval : float;
}

type t = {
  program : string;
  nprocs : int;
  page_size : int;
  level : string;
  directives : directive list;
}

val validate : t -> (t, string) result
(** Structural checks (page ordering, owner ranges, proto/owner
    agreement). Error messages follow {!Dsm_net.Plan.field_error}'s
    "field: value outside accepted range" shape. *)

val write : out_channel -> t -> unit
val save : string -> t -> unit

val of_lines : string list -> (t, string) result
(** Parse header + directive lines (blank lines already removed);
    runs {!validate}. *)

val load : string -> (t, string) result
(** Read a plan file; all failures (including I/O) become [Error]. *)

val n_pages : t -> int
(** Total pages covered by all directives. *)

val exact_directives : t -> directive list

val find : t -> int -> directive option
(** Directive covering a page, if any. *)
