(** Typed protocol-event records.

    One event per protocol-level action of the run-time: access misses,
    twin creation, diff creation/fetch/application, write-notice
    send/apply, barrier and lock operations, the augmented-interface calls
    (Validate, Validate_w_sync, Push) and broadcasts. Events carry the
    acting processor, its virtual clock and a vector-clock snapshot, so a
    trace fully determines the happens-before order the LRC protocol must
    respect (see {!Check}). *)

type kind =
  | Page_fault of { page : int; write : bool; fetch : bool }
      (** an access to an invalid (or, for [write], read-only) page;
          [fetch] is true when servicing it pulled remote diffs, false
          when the page was satisfiable locally *)
  | Twin of { page : int }
      (** a pristine copy of [page] was made before its first write in
          the current interval (the source of later diffs) *)
  | Diff_create of { page : int; seq : int; bytes : int; write_all : bool }
      (** the twin/current comparison for [page] in interval [seq]
          produced a [bytes]-byte diff; [write_all] marks a
          compiler-certified whole-page write (no twin was needed and
          the diff supersedes all earlier ones for the page) *)
  | Diff_fetch of { writer : int; page : int; after : int; upto : int }
      (** request to [writer] for its diffs of [page] with interval
          seqs in the entitlement window [(after, upto]] — [after] is
          the newest seq already applied locally for the page, [upto]
          the newest known through received write notices *)
  | Diff_apply of {
      writer : int;
      page : int;
      order : int;
      upto_seq : int;
      bytes : int;
    }
      (** [bytes] of fetched diffs from [writer] were applied to
          [page]; [order] is the writer's vector-clock sum at creation
          (the checker verifies ascending application order) and
          [upto_seq] the newest interval seq the batch covers *)
  | Fetch_done of { page : int; full : bool }
      (** all outstanding fetches for [page] completed; [full] means a
          whole-page copy was transferred instead of diffs *)
  | Notice_send of { seq : int; pages : int list }
      (** at a release, the processor closed interval [seq] and made
          write notices for [pages] available to others *)
  | Notice_apply of { writer : int; seq : int; page : int; invalidated : bool }
      (** a write notice from [writer]'s interval [seq] reached this
          processor; [invalidated] is true when [page] is inaccessible
          after the notice is recorded (it was, or became, invalid) and
          false when a redundant notice left it accessible *)
  | Barrier_arrive of { epoch : int }
  | Barrier_depart of { epoch : int }
  | Lock_request of { lock : int }
  | Lock_grant of { lock : int; grantor : int; notices : int }
      (** [grantor] handed over [lock] along with [notices] write
          notices covering the intervals the requester had not seen *)
  | Validate of { access : string; npages : int; async : bool; w_sync : bool }
      (** an augmented-interface call declared an [access] ("READ",
          "WRITE", "READ&WRITE", "WRITE_ALL", "READ&WRITE_ALL") over
          [npages] pages; [async] marks an overlapped prefetch,
          [w_sync] the combined validate-with-synchronization form *)
  | Push_send of { dst : int; bytes : int; seq : int }
      (** compiler-directed push of this processor's interval-[seq]
          diffs ([bytes] bytes) to [dst] *)
  | Push_recv of { src : int; bytes : int; seq : int; pages : int list }
      (** receipt of a push from [src]; [pages] may later be rolled
          back if a concurrent writer invalidates the speculation *)
  | Push_rollback of { page : int; writer : int; seq : int }
      (** a pushed copy of [page] was discarded because [writer]'s
          interval [seq] proved the push stale *)
  | Broadcast of { bytes : int; requesters : int list }
      (** hybrid update: one writer broadcast [bytes] of diffs to
          [requesters] instead of serving individual fetches *)
  | Home_flush of { page : int; home : int; seq : int; bytes : int }
      (** HLRC: at a release, the writer eagerly flushed its diffs of
          [page] — covering its intervals up to [seq], [bytes] bytes of
          payload — into the copy held by the page's [home] processor *)
  | Home_fetch of { page : int; home : int; bytes : int }
      (** HLRC: a faulting processor replaced its copy of [page] with
          the full up-to-date copy fetched from [home] *)
  | Inval_send of { page : int; dst : int }
      (** invalidate protocol: the directory asked sharer [dst] to drop
          its copy of [page] before granting a writer exclusivity *)
  | Inval_ack of { page : int; writer : int }
      (** invalidate protocol: the emitting processor dropped its copy
          of [page] in answer to an {!Inval_send}, granting [writer]
          exclusivity *)
  | Downgrade of { page : int; reader : int }
      (** invalidate protocol: the exclusive owner's copy of [page] was
          demoted to shared so [reader] could fetch current contents *)
  | Proto_switch of { page : int; proto : string; owner : int; epoch : int }
      (** adaptive backend: at barrier [epoch], [page] switched to
          protocol [proto] ("lrc", "hlrc" or "inval") with designated
          [owner] (home under hlrc, holder under inval, -1 under lrc) *)
  | Plan_applied of { lo_page : int; hi_page : int; proto : string; owner : int }
      (** a static protocol-placement directive ([dsm_run --plan]) seeded
          pages [lo_page..hi_page] with protocol [proto] ("lrc", "hlrc"
          or "inval") and designated [owner] before the first access —
          one event per directive, emitted by processor 0 *)
  | Obj_region of { base_page : int; npages : int; obj_size : int; count : int }
      (** object-granularity allocation ({!Dsm_tmk.Tmk.Alloc.objs}): a
          region of [count] packed objects of [obj_size] bytes over pages
          [base_page..base_page+npages-1] — one event per region, emitted
          by processor 0 at start of run *)
  | Obj_skip of { page : int; slots : int list }
      (** a validate of the object [slots] skipped fetching [page]: the
          page is stale at page granularity but every validated object is
          disjoint from the stale slots (false sharing, no true
          communication) *)
  | Crash of { epoch : int }
      (** fault tolerance: the emitting processor fail-stopped at barrier
          [epoch], losing all volatile state *)
  | Restart of { epoch : int; ckpt : int }
      (** fault tolerance: the processor rejoined at barrier [epoch] from
          checkpoint [ckpt] (0 = the implicit initial checkpoint) *)
  | Suspect of { peer : int; attempts : int }
      (** fault tolerance: the emitter declared [peer] crashed after
          [attempts] unanswered retransmissions *)
  | Quorum_write of { page : int; seq : int; acks : int list; needed : int }
      (** hlrc-r: the release-time flush of [page] up to interval [seq]
          was applied by replica members [acks]; sound iff
          [List.length acks >= needed] *)
  | Quorum_read of { page : int; from : int; acks : int list; needed : int }
      (** hlrc-r: a miss on [page] was served from replica [from], chosen
          among live members [acks] by watermark dominance *)
  | Ckpt of { id : int; ckpt_epoch : int }
      (** fault tolerance: the emitter checkpointed its vector clock and
          per-page watermarks at barrier [ckpt_epoch] *)
  | Msg_drop of { msg : int; src : int; dst : int; attempt : int }
      (** a delivery attempt of reliable-layer message [msg] was lost *)
  | Msg_dup of { msg : int; src : int; dst : int }
      (** the network duplicated a delivery; the receiver suppressed it *)
  | Retransmit of { msg : int; src : int; dst : int; attempt : int }
      (** the reliable layer resent [msg] as delivery attempt [attempt] *)
  | Timeout_fire of {
      msg : int;
      src : int;
      dst : int;
      attempt : int;
      backoff_us : float;
    }  (** the retransmission timer for attempt [attempt] expired *)
  | Ack of { msg : int; src : int; dst : int; attempts : int }
      (** [dst] acknowledged [msg] after [attempts] delivery attempts *)

type t = {
  id : int;  (** global emission order *)
  proc : int;
  time : float;  (** virtual clock of [proc] at emission *)
  vc : int array;  (** vector-clock snapshot of [proc] *)
  kind : kind;
}

val kind_name : kind -> string

val to_json : t -> string
(** One-line JSON object (the [--trace out.jsonl] format of [dsm_run]). *)

exception Parse_error of string
(** The same exception as {!Dsm_util.Jflat.Parse_error}: lines are parsed
    by that module, so a handler for either matches. *)

val of_json : string -> t
(** Parse one line of {!to_json} output back into an event.
    @raise Parse_error on malformed input or unknown event kinds. *)

type parse_result =
  | Event of t
  | Unknown_kind of string
      (** structurally valid line whose ["ev"] names a kind this parser
          does not know (e.g. a trace written by a newer binary) *)
  | Malformed of string  (** parse failure with detail *)

val parse_line : string -> parse_result
(** Non-raising form of {!of_json} for offline trace consumers. *)

type load = {
  events : t list;  (** every successfully parsed event, in file order *)
  warnings : (int * string) list;  (** (1-based line number, message) *)
  unknown_kinds : int;  (** lines skipped for an unrecognized kind *)
}

val load_jsonl : string -> load
(** Load a [--trace] JSONL file tolerantly: unknown event kinds become
    counted warnings carrying the line number, and a line that does not
    parse becomes a warning instead of an exception: "truncated final
    line" when it is the last line and the file does not end in a newline
    (a crash mid-write), "malformed line" otherwise. Raises [Sys_error]
    only if the file cannot be opened. *)

val pp : Format.formatter -> t -> unit
