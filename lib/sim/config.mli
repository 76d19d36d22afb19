(** Cost-model parameters of the simulated cluster.

    The defaults are calibrated from the measurements published in Section 5
    of the paper for the 8-node IBM SP/2 under AIX 3.2.5 with user-space MPL
    communication:

    - minimum small-message roundtrip (send/recv + interrupt): 365 us
    - minimum acquisition of a free lock: 427 us
    - minimum 8-processor barrier: 893 us
    - page fault / memory-protection cost: linear in the number of pages in
      use (18..800 us with 2000 pages in use).

    With the defaults, [2 * wire_latency_us + 4 * msg_overhead_us +
    interrupt_us = 365], and the barrier formula
    [2 * wire_latency_us + 16 * msg_overhead_us + 7 * interrupt_us = 893]
    (see {!Dsm_tmk.Barrier}), reproducing the published platform numbers. *)

type backend_kind =
  | Lrc  (** homeless LRC: distributed diffs, TreadMarks-style (the paper) *)
  | Hlrc
      (** home-based LRC: each page has a home processor; releasers flush
          diffs to the home eagerly, faults fetch one full page copy *)
  | Inval
      (** sequentially consistent directory-based single-writer invalidate:
          one writer or many readers per page, enforced by a per-page
          directory entry on processor [page mod nprocs] *)
  | Adaptive
      (** per-page protocol switching: pages start under [Lrc] and migrate
          between lrc/hlrc/invalidate modes at barrier epochs based on the
          observed sharing pattern *)

type home_policy =
  | Home_block  (** contiguous page ranges per processor *)
  | Home_cyclic  (** page [g] homed on [g mod nprocs] *)
  | Home_first_touch
      (** first processor to flush to or fetch a page becomes its home *)

val backend_name : backend_kind -> string
val backend_of_string : string -> backend_kind option

val backend_choices : string list
(** Canonical names accepted by {!backend_of_string}, for error messages. *)

val home_policy_name : home_policy -> string
val home_policy_of_string : string -> home_policy option

val home_policy_choices : string list
(** Canonical names accepted by {!home_policy_of_string}. *)

type t = {
  nprocs : int;  (** number of simulated processors *)
  page_size : int;  (** bytes per virtual-memory page *)
  wire_latency_us : float;  (** one-way network latency (alpha) *)
  per_byte_us : float;  (** per-byte network cost (beta), ~1/35 MB/s *)
  msg_overhead_us : float;  (** per-message CPU send/receive overhead (o) *)
  interrupt_us : float;  (** interrupt dispatch cost at a request target *)
  lock_service_us : float;  (** lock-manager service time *)
  mm_base_us : float;  (** fixed cost of a fault or mprotect call *)
  mm_per_inuse_page_us : float;  (** additional cost per page in use *)
  mm_per_op_page_us : float;  (** additional cost per page covered by call *)
  twin_per_byte_us : float;  (** cost per byte of twin creation (memcpy) *)
  diff_create_per_byte_us : float;  (** cost per byte of twin/copy compare *)
  diff_apply_per_byte_us : float;  (** cost per byte of diff application *)
  wsync_scan_per_page_us : float;
      (** cost, per page examined, of matching a piggy-backed section request
          against the local diff store in [Fetch_diffs_w_sync] *)
  diff_service_us : float;
      (** fixed handler time to service a diff request, on top of per-byte
          response costs *)
  notice_bytes : int;  (** wire size of one write notice *)
  enable_bcast : bool;
      (** ablation: barrier-time broadcast detection in
          [Fetch_diffs_w_sync] (Section 3.2.1) *)
  enable_supersede : bool;
      (** ablation: WRITE_ALL full-page diffs supersede older overlapping
          diffs at fetch (removes the IS diff accumulation) *)
  enable_hotspot_queueing : bool;
      (** ablation: overlapping requests to one processor serialize behind
          its handler occupancy *)
  net_drop : float;
      (** probability that a transmitted message copy is lost in the network
          (per delivery attempt); 0 = the SP/2's exactly-once MPL substrate *)
  net_dup : float;
      (** probability that a delivered message is duplicated by the network
          (the duplicate is suppressed by the reliable layer at the receiver) *)
  net_jitter_us : float;
      (** maximum extra delivery delay drawn uniformly per message, us *)
  net_seed : int;
      (** PRNG seed of the fault plan: any faulty run is exactly reproducible
          from [(config, seed)] *)
  backend : backend_kind;  (** coherence protocol run by {!Dsm_tmk.Tmk} *)
  home_policy : home_policy;
      (** static page-to-home assignment (HLRC only) *)
  replicas : int;
      (** fault tolerance: size [k] of each page's home replica group under
          the hlrc backend. Release-time flushes become quorum writes (acked
          by ⌈(k+1)/2⌉ members) and misses quorum reads. [1] (the default)
          keeps the plain single-home protocol bit-identical to the
          pre-replication runtime; any other backend requires [1]. *)
  ckpt_every : int;
      (** fault tolerance: barrier epochs between checkpoints of each
          processor's vector clock and per-page watermarks; [0] = only the
          implicit (empty) initial checkpoint, so recovery re-pulls the full
          notice history *)
  crash : (int * float * float) list;
      (** fault tolerance: deterministic crash-stop schedule
          [(proc, at_us, down_us)]. The processor fail-stops at its first
          release point (barrier arrival) at or after [at_us], loses all
          page state, and rejoins from its last checkpoint plus replica
          state after [down_us] of virtual downtime. Requires the hlrc
          backend with [replicas >= 3]. *)
}

val default : t
(** SP/2-calibrated parameters with 8 processors and 4 KiB pages. *)

val with_procs : t -> int -> t
(** [with_procs cfg n] is [cfg] with [nprocs = n]. *)

val pp : Format.formatter -> t -> unit
