(** Core lazy-release-consistency protocol operations.

    The functions here are the run-time's internals, shared by the fault
    handler ({!Fetch}), the synchronization operations ({!Sync_ops}) and
    the augmented interface ({!Validate}); applications use {!Tmk}.

    Protocol summary (Section 2 of the paper):

    - a {e release} (lock release or barrier arrival) starts a new interval
      and records write notices for the pages dirtied in the closing one;
      pages are write-protected again, twins are kept, and no diff is
      computed (lazy diffing);
    - an {e acquire} (lock grant or barrier departure) delivers the write
      notices of every interval that happens-before it; stale pages are
      invalidated;
    - an {e access miss} fetches the missing diffs from their writers (one
      request per writer), applies them in happens-before order to the copy
      and its twin, and restores access;
    - a diff is {e materialized} at the writer when first requested,
      covering every interval since the twin was made; a foreign write
      notice for a page with pending modifications forces materialization,
      which bounds accumulation to spans with no ordered-in-between foreign
      interval. *)

open Types

val emit : system -> int -> Dsm_trace.Event.kind -> unit
(** Append a protocol event to the system's sink (no-op when tracing is
    off). Guard call sites with [sys.trace <> None] before building the
    event payload so a disabled trace allocates nothing; emission never
    charges simulated time. *)

val meta : pstate -> int -> page_meta
(** Per-page protocol metadata (applied/known watermarks, WRITE_ALL ranges,
    pending lazy interval), created on first use. A quiet page's [known]
    watermarks are folded in from the interval logs here first. *)

val stale : int -> page_meta -> bool
(** [stale p m]: processor [p]'s copy of the page misses data, because
    some other writer's known watermark in [m] is above its applied
    one. *)

(** {1 Quiet pages}

    A write notice for a page the processor already holds invalid (with no
    pending lazy diff, outside any object region) only marks the page
    pending; {!meta} folds its [known] watermarks in from the writers'
    page index when the page is next used. Simulated behaviour is
    identical to applying every notice eagerly. *)

val grant :
  pstate -> int -> Dsm_mem.Page_table.page -> Dsm_mem.Page_table.prot -> unit
(** [grant st page pg prot] sets the page's protection to [prot]. The only
    way out of [No_access] in the run-time: a quiet page is folded and
    applies notices eagerly again. *)

val fold_all : pstate -> unit
(** Fold every pending page (before a checkpoint snapshots [known]). *)

val forget_quiet : pstate -> unit
(** Make every page apply notices eagerly again (after a wipe). *)

val quiet_pages : pstate -> int list
(** Pages currently quiet (folded or pending), ascending. Each is
    [No_access], has metadata with [lazy_hi = 0], and is not in an object
    region. *)

val protect_runs : system -> int -> int list -> unit
(** Charge and count one protection operation per contiguous run. *)

val release : system -> int -> (int * int list) option
(** Close the current interval: returns the new log entry [(seq, pages)],
    or [None] when nothing was dirtied. *)

val materialize : system -> writer:int -> page:int -> float
(** Create the writer's pending diff for the page, if any; returns the cost
    to charge (as request service time — the work happens in the writer's
    interrupt handler). Cleans the page (twin dropped, write-protected,
    off the dirty list) unless the writer is mid-interval on it. *)

val count_notices : system -> int -> upto:Vc.t -> int
(** The number of notices {!pull_notices} would apply (for message-size
    accounting), counted without applying them. *)

val pull_notices : system -> int -> upto:Vc.t -> unit
(** Apply every notice in the global interval logs between the processor's
    vector clock and [upto]; advance the clock. *)

(** {1 The transfer pipeline}

    Every data-moving policy plans a transfer (stale pages grouped by the
    peer that serves them), {!move}s one response per peer, charged once by
    mode, and installs the data. *)

(** How a transfer is paid for. *)
type mode =
  | Rpc  (** on-demand request/response pair, one per peer *)
  | Prepaid
      (** data already paid for: an asynchronous response consumed at a
          fault, or a broadcast *)
  | Piggyback of float
      (** one data message per peer, sent at the given time (answers to
          section requests piggy-backed on a synchronization operation) *)
  | Async
      (** requests sent now, responses consumed by the page-fault handler
          (Section 3.2.3) *)
  | Async_at of float
      (** piggy-backed answers sent at the given time, consumed by the
          page-fault handler *)

val is_async : mode -> bool

(** One peer's response to a planned transfer. *)
type response = {
  peer : int;
  pages : int list;
  nreq : int;  (** request entries, 16 bytes each *)
  data : int;  (** payload bytes *)
  hdr : int;  (** per-diff framing bytes *)
  ndiffs : int;  (** historical diffs carried: each costs service time *)
  mat : float;  (** lazy-diff materialization the peer performed for it *)
}

val await : Types.pstate -> int -> float -> unit
(** [await st page arrival]: an asynchronous response for [page] arrives
    at [arrival]; the page-fault handler consumes it. *)

val move : system -> int -> mode -> response -> unit
(** Send and charge one peer's response to processor [p]; the asynchronous
    modes record the arrival for the fault handler instead of waiting. *)

val transfer :
  system ->
  int ->
  mode ->
  'g list ->
  respond:('g -> response) ->
  install:('g -> unit) ->
  unit
(** Run a planned transfer: per peer group, build its response, {!move} it
    and — unless the mode is asynchronous — install it. *)

val apply_units : ?each:(Diff_store.unit_to_apply -> unit) ->
  Dsm_mem.Page_table.page -> Diff_store.unit_to_apply list -> unit
(** Apply diff units to a copy and its twin in happens-before order
    (a stable sort by [order]: ties apply in list order). *)

val mark_current : ?restate:bool -> system -> int -> int -> unit
(** [mark_current sys p page]: [p]'s copy was just made current — raise its
    applied watermarks to the known ones and tell the diff store;
    [restate] also restates the watermarks that did not move. *)

val hashtbl_order : int -> (int -> int) -> int array
(** [hashtbl_order n hash]: the order in which [Hashtbl.iter] visits [n]
    distinct keys that a fresh [Hashtbl.create 8] received through
    [Hashtbl.replace], the [i]th inserted having [Hashtbl.hash] value
    [hash i], as insertion indices; one counting pass over the buckets.
    {!fetch} orders its responses (by writer) and applies its pages in
    this order. *)

val fetch_scratch : int -> fetch_scratch
(** [fetch_scratch nprocs]: the per-system scratch {!fetch} reuses. *)

val fetch :
  system -> int -> int list -> mode:mode -> ?only_via:int -> unit -> unit
(** The homeless policy: fetch every missing diff for [pages], one response
    per writer, and (unless [mode] is asynchronous) apply them in
    happens-before order. Supersede pruning drops dead history when the
    happens-latest diff overwrites the whole page; [only_via r] restricts
    to diffs processor [r] holds locally (lock-grant piggy-backing). *)

val make_twin : system -> int -> int -> Dsm_mem.Page_table.page -> unit
(** [make_twin sys p page pg]: snapshot the copy as its twin (counted,
    traced and charged). *)

val in_dirty : pstate -> int -> bool
(** Membership in the current interval's write set (hash set; O(1)). *)

val mark_dirty : pstate -> int -> unit
(** Add a page to the current interval's write set. *)

val record_write_all : system -> int -> Dsm_rsd.Range.t -> unit
(** Mark byte ranges as validated WRITE_ALL: the fault handler skips twin
    creation for them and materialization copies them verbatim. *)

val apply_access_state :
  system -> int -> ranges:Dsm_rsd.Range.t -> access:access -> unit
(** The protection/twin actions of Figure 3 for a validated section, after
    any required data movement has happened: [READ] write-protects,
    [WRITE]/[READ&WRITE] create twins and enable writing, the [_ALL] types
    enable writing without twins and record the WRITE_ALL ranges. *)

val obj_size : system -> int -> int
(** The object size of a page inside an object-granularity region, 0
    outside any: one bounds check and one read. *)

val obj_all_slots : system -> int -> Pset.t
(** Every slot of a page holding objects of the given size: the
    conservative "whole page stale" extent. *)

val obj_skip :
  system -> int -> ranges:Dsm_rsd.Range.t -> int list -> int list * int list
(** Split a validate's page list into [(fetch, skipped)]. A page is skipped
    when it lies in an object-granularity region, is genuinely stale, its
    stale-slot tracking is live, and every validated object is disjoint
    from the stale slots — page-granularity false sharing with no true
    communication. Counts {!Dsm_sim.Stats.obj_skips} and emits [Obj_skip]
    per skipped page. Identity when [sys.has_objs] is unset or homes are
    replicated. *)

val split_unfaultable :
  system -> int -> int list -> int list * int list
(** Split an asynchronous validate's fetch list into
    [(faultable, unfaultable)]: pages left accessible by an earlier
    object-granularity skip never fault, so their fetch cannot be left to
    the fault handler — the caller fetches them synchronously. Identity
    ([pages], []) when [sys.has_objs] is unset. *)

val clip_to_pages : system -> Dsm_rsd.Range.t -> int list -> Dsm_rsd.Range.t
(** The sub-ranges of [ranges] falling on the given pages. *)

val detect_bcast :
  system ->
  epoch:int ->
  departure_clock:float ->
  (int * wsync_req list) list ->
  (int * bcast_plan) option
(** The homeless backend's barrier departure, run once in the last
    arriver's turn: when every requester piggy-backed the same ranges and
    one processor holds all the new data for them, plan a broadcast
    answer instead of per-requester responses (Section 3.2.1). [None]
    unless [Config.enable_bcast]. *)
