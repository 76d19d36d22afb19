(* Typed protocol events. One record per protocol-level action, stamped
   with the acting processor, its virtual clock and a vector-clock
   snapshot; [id] is the global emission order (the simulator is
   sequential, so emission order is consistent with happens-before). *)

type kind =
  | Page_fault of { page : int; write : bool; fetch : bool }
      (* [fetch]: the handler had to make the page consistent (the page was
         invalid, or a read miss) *)
  | Twin of { page : int }
  | Diff_create of {
      page : int;
      seq : int;  (* last interval the materialized diff covers *)
      bytes : int;
      write_all : bool;  (* verbatim WRITE_ALL content, no twin comparison *)
    }
  | Diff_fetch of { writer : int; page : int; after : int; upto : int }
      (* applied-watermark advance for [writer]: applied := max applied
         upto. Covers both a served fetch request and supersede pruning
         (where the pruned writers' diffs are marked applied, not sent). *)
  | Diff_apply of {
      writer : int;
      page : int;
      order : int;  (* happens-before stamp (vector-clock sum at release) *)
      upto_seq : int;  (* last interval of the writer the unit covers *)
      bytes : int;
    }
  | Fetch_done of { page : int; full : bool }
      (* a fetch-and-apply pass over [page] completed; [full] when it was
         unrestricted (not limited to the diffs one processor holds) and
         therefore must have left the copy fully consistent *)
  | Notice_send of { seq : int; pages : int list }
      (* release: interval [seq] closed, write notices recorded *)
  | Notice_apply of {
      writer : int;
      seq : int;
      page : int;
      invalidated : bool;  (* local copy unreadable after the notice *)
    }
  | Barrier_arrive of { epoch : int }
  | Barrier_depart of { epoch : int }
  | Lock_request of { lock : int }
  | Lock_grant of { lock : int; grantor : int; notices : int }
  | Validate of { access : string; npages : int; async : bool; w_sync : bool }
  | Push_send of { dst : int; bytes : int; seq : int }
  | Push_recv of { src : int; bytes : int; seq : int; pages : int list }
  | Push_rollback of { page : int; writer : int; seq : int }
      (* barrier rolled the applied watermark back over a partially pushed
         page, restoring full consistency on the next access *)
  | Broadcast of { bytes : int; requesters : int list }
  (* Home-based LRC (HLRC) events. A page's home holds a copy that every
     released interval has been eagerly flushed into; faulting processors
     fetch that single full copy instead of merging per-writer diffs. *)
  | Home_flush of { page : int; home : int; seq : int; bytes : int }
      (* the releaser flushed its diffs for [page], covering its intervals
         up to [seq], into the home copy at processor [home] *)
  | Home_fetch of { page : int; home : int; bytes : int }
      (* a faulting processor installed the full page copy held by [home] *)
  (* Directory-based single-writer invalidate events. The directory entry
     for a page lives on processor [page mod nprocs]; a write fault sends
     [Inval_send] to every sharer (answered by [Inval_ack]) before the
     writer is granted exclusivity, and a read miss on an exclusive page
     downgrades the owner to shared. *)
  | Inval_send of { page : int; dst : int }
      (* the directory asked sharer [dst] to drop its copy of [page] *)
  | Inval_ack of { page : int; writer : int }
      (* the emitting processor dropped its copy of [page] so that
         [writer] could take it exclusively *)
  | Downgrade of { page : int; reader : int }
      (* the exclusive owner's copy of [page] was demoted to shared so
         that [reader] could be served the current contents *)
  | Proto_switch of { page : int; proto : string; owner : int; epoch : int }
      (* adaptive backend: at barrier [epoch] the page moved to protocol
         [proto] ("lrc", "hlrc" or "inval") with designated [owner]
         (home under hlrc, current holder under inval, -1 under lrc) *)
  | Plan_applied of { lo_page : int; hi_page : int; proto : string; owner : int }
      (* a static protocol-placement directive ([dsm_run --plan]) seeded
         pages [lo_page..hi_page] with protocol [proto] and designated
         [owner] before the program ran — one event per directive, emitted
         by processor 0 at start of run *)
  (* Object-granularity allocation ([Tmk.Alloc.objs]): sub-page staleness
     tracking on top of the page watermarks. *)
  | Obj_region of { base_page : int; npages : int; obj_size : int; count : int }
      (* an object-granularity region: [count] packed objects of
         [obj_size] bytes over pages [base_page..base_page+npages-1] —
         one event per region, emitted by processor 0 at start of run *)
  | Obj_skip of { page : int; slots : int list }
      (* a validate of the object [slots] skipped fetching [page]: the
         page is stale at page granularity but every validated object is
         disjoint from the stale slots (false sharing, no communication) *)
  (* Fault-tolerance events (lib/ft + Dsm_tmk.Recover). Crash-stop node
     failures execute at release points; homes are k-replica groups whose
     flushes are quorum writes and whose misses are quorum reads. *)
  | Crash of { epoch : int }
      (* the emitting processor fail-stopped at barrier epoch [epoch],
         wiping all page state; its vc snapshot is taken pre-wipe *)
  | Restart of { epoch : int; ckpt : int }
      (* the processor rejoined from checkpoint [ckpt] (plus replica
         state); its vc snapshot shows the restored (possibly regressed
         in foreign components) clock *)
  | Suspect of { peer : int; attempts : int }
      (* the emitting processor's reliable layer exhausted [attempts]
         delivery attempts against [peer] and declared it suspected *)
  | Quorum_write of { page : int; seq : int; acks : int list; needed : int }
      (* release-time flush of the writer's intervals up to [seq] into
         [page]'s replica group; [acks] are the members that applied it
         (|acks| >= [needed] or the write would not be acknowledged) *)
  | Quorum_read of { page : int; from : int; acks : int list; needed : int }
      (* miss serviced by the replica group: the full copy came from
         [from], the highest-watermark member among [acks] *)
  | Ckpt of { id : int; ckpt_epoch : int }
      (* barrier-quiesced checkpoint [id] of the emitting processor's
         vector clock and per-page watermarks, at epoch [ckpt_epoch] *)
  (* Transport-level events of the unreliable-network model (lib/net).
     [msg] is the global message id of the reliable-delivery layer; each
     event names the flow endpoints so the checker can reason per message
     without flow state. *)
  | Msg_drop of { msg : int; src : int; dst : int; attempt : int }
      (* delivery attempt [attempt] of message [msg] was lost *)
  | Msg_dup of { msg : int; src : int; dst : int }
      (* the network duplicated a delivery; the copy was suppressed *)
  | Retransmit of { msg : int; src : int; dst : int; attempt : int }
      (* the reliable layer resent [msg]; this is attempt [attempt] *)
  | Timeout_fire of {
      msg : int;
      src : int;
      dst : int;
      attempt : int;  (* the attempt whose loss the timeout detected *)
      backoff_us : float;  (* rto * 2^(attempt-1): exponential backoff *)
    }
  | Ack of { msg : int; src : int; dst : int; attempts : int }
      (* [dst] acknowledged [msg] after [attempts] delivery attempts *)

type t = {
  id : int;  (* global emission order *)
  proc : int;
  time : float;  (* virtual clock of [proc] at emission *)
  vc : int array;  (* vector-clock snapshot of [proc] *)
  kind : kind;
}

let kind_name = function
  | Page_fault _ -> "page_fault"
  | Twin _ -> "twin"
  | Diff_create _ -> "diff_create"
  | Diff_fetch _ -> "diff_fetch"
  | Diff_apply _ -> "diff_apply"
  | Fetch_done _ -> "fetch_done"
  | Notice_send _ -> "notice_send"
  | Notice_apply _ -> "notice_apply"
  | Barrier_arrive _ -> "barrier_arrive"
  | Barrier_depart _ -> "barrier_depart"
  | Lock_request _ -> "lock_request"
  | Lock_grant _ -> "lock_grant"
  | Validate _ -> "validate"
  | Push_send _ -> "push_send"
  | Push_recv _ -> "push_recv"
  | Push_rollback _ -> "push_rollback"
  | Broadcast _ -> "broadcast"
  | Home_flush _ -> "home_flush"
  | Home_fetch _ -> "home_fetch"
  | Inval_send _ -> "inval_send"
  | Inval_ack _ -> "inval_ack"
  | Downgrade _ -> "downgrade"
  | Proto_switch _ -> "proto_switch"
  | Plan_applied _ -> "plan_applied"
  | Obj_region _ -> "obj_region"
  | Obj_skip _ -> "obj_skip"
  | Crash _ -> "crash"
  | Restart _ -> "restart"
  | Suspect _ -> "suspect"
  | Quorum_write _ -> "quorum_write"
  | Quorum_read _ -> "quorum_read"
  | Ckpt _ -> "ckpt"
  | Msg_drop _ -> "msg_drop"
  | Msg_dup _ -> "msg_dup"
  | Retransmit _ -> "retransmit"
  | Timeout_fire _ -> "timeout_fire"
  | Ack _ -> "ack"

(* {1 JSONL encoding} *)

let json_int_list l =
  "[" ^ String.concat "," (List.map string_of_int l) ^ "]"

let kind_fields = function
  | Page_fault { page; write; fetch } ->
      Printf.sprintf "\"page\":%d,\"write\":%b,\"fetch\":%b" page write fetch
  | Twin { page } -> Printf.sprintf "\"page\":%d" page
  | Diff_create { page; seq; bytes; write_all } ->
      Printf.sprintf "\"page\":%d,\"seq\":%d,\"bytes\":%d,\"write_all\":%b"
        page seq bytes write_all
  | Diff_fetch { writer; page; after; upto } ->
      Printf.sprintf "\"writer\":%d,\"page\":%d,\"after\":%d,\"upto\":%d"
        writer page after upto
  | Diff_apply { writer; page; order; upto_seq; bytes } ->
      Printf.sprintf
        "\"writer\":%d,\"page\":%d,\"order\":%d,\"upto_seq\":%d,\"bytes\":%d"
        writer page order upto_seq bytes
  | Fetch_done { page; full } ->
      Printf.sprintf "\"page\":%d,\"full\":%b" page full
  | Notice_send { seq; pages } ->
      Printf.sprintf "\"seq\":%d,\"pages\":%s" seq (json_int_list pages)
  | Notice_apply { writer; seq; page; invalidated } ->
      Printf.sprintf "\"writer\":%d,\"seq\":%d,\"page\":%d,\"invalidated\":%b"
        writer seq page invalidated
  | Barrier_arrive { epoch } | Barrier_depart { epoch } ->
      Printf.sprintf "\"epoch\":%d" epoch
  | Lock_request { lock } -> Printf.sprintf "\"lock\":%d" lock
  | Lock_grant { lock; grantor; notices } ->
      Printf.sprintf "\"lock\":%d,\"grantor\":%d,\"notices\":%d" lock grantor
        notices
  | Validate { access; npages; async; w_sync } ->
      Printf.sprintf "\"access\":%S,\"npages\":%d,\"async\":%b,\"w_sync\":%b"
        access npages async w_sync
  | Push_send { dst; bytes; seq } ->
      Printf.sprintf "\"dst\":%d,\"bytes\":%d,\"seq\":%d" dst bytes seq
  | Push_recv { src; bytes; seq; pages } ->
      Printf.sprintf "\"src\":%d,\"bytes\":%d,\"seq\":%d,\"pages\":%s" src
        bytes seq (json_int_list pages)
  | Push_rollback { page; writer; seq } ->
      Printf.sprintf "\"page\":%d,\"writer\":%d,\"seq\":%d" page writer seq
  | Broadcast { bytes; requesters } ->
      Printf.sprintf "\"bytes\":%d,\"requesters\":%s" bytes
        (json_int_list requesters)
  | Home_flush { page; home; seq; bytes } ->
      Printf.sprintf "\"page\":%d,\"home\":%d,\"seq\":%d,\"bytes\":%d" page
        home seq bytes
  | Home_fetch { page; home; bytes } ->
      Printf.sprintf "\"page\":%d,\"home\":%d,\"bytes\":%d" page home bytes
  | Inval_send { page; dst } ->
      Printf.sprintf "\"page\":%d,\"dst\":%d" page dst
  | Inval_ack { page; writer } ->
      Printf.sprintf "\"page\":%d,\"writer\":%d" page writer
  | Downgrade { page; reader } ->
      Printf.sprintf "\"page\":%d,\"reader\":%d" page reader
  | Proto_switch { page; proto; owner; epoch } ->
      Printf.sprintf "\"page\":%d,\"proto\":%S,\"owner\":%d,\"epoch\":%d" page
        proto owner epoch
  | Plan_applied { lo_page; hi_page; proto; owner } ->
      Printf.sprintf
        "\"lo_page\":%d,\"hi_page\":%d,\"proto\":%S,\"owner\":%d" lo_page
        hi_page proto owner
  | Obj_region { base_page; npages; obj_size; count } ->
      Printf.sprintf
        "\"base_page\":%d,\"npages\":%d,\"obj_size\":%d,\"count\":%d"
        base_page npages obj_size count
  | Obj_skip { page; slots } ->
      Printf.sprintf "\"page\":%d,\"slots\":%s" page (json_int_list slots)
  | Crash { epoch } -> Printf.sprintf "\"epoch\":%d" epoch
  | Restart { epoch; ckpt } ->
      Printf.sprintf "\"epoch\":%d,\"ckpt\":%d" epoch ckpt
  | Suspect { peer; attempts } ->
      Printf.sprintf "\"peer\":%d,\"attempts\":%d" peer attempts
  | Quorum_write { page; seq; acks; needed } ->
      Printf.sprintf "\"page\":%d,\"seq\":%d,\"acks\":%s,\"needed\":%d" page
        seq (json_int_list acks) needed
  | Quorum_read { page; from; acks; needed } ->
      Printf.sprintf "\"page\":%d,\"from\":%d,\"acks\":%s,\"needed\":%d" page
        from (json_int_list acks) needed
  | Ckpt { id; ckpt_epoch } ->
      Printf.sprintf "\"ckpt_id\":%d,\"epoch\":%d" id ckpt_epoch
  | Msg_drop { msg; src; dst; attempt } ->
      Printf.sprintf "\"msg\":%d,\"src\":%d,\"dst\":%d,\"attempt\":%d" msg src
        dst attempt
  | Msg_dup { msg; src; dst } ->
      Printf.sprintf "\"msg\":%d,\"src\":%d,\"dst\":%d" msg src dst
  | Retransmit { msg; src; dst; attempt } ->
      Printf.sprintf "\"msg\":%d,\"src\":%d,\"dst\":%d,\"attempt\":%d" msg src
        dst attempt
  | Timeout_fire { msg; src; dst; attempt; backoff_us } ->
      Printf.sprintf
        "\"msg\":%d,\"src\":%d,\"dst\":%d,\"attempt\":%d,\"backoff_us\":%.3f"
        msg src dst attempt backoff_us
  | Ack { msg; src; dst; attempts } ->
      Printf.sprintf "\"msg\":%d,\"src\":%d,\"dst\":%d,\"attempts\":%d" msg src
        dst attempts

let to_json e =
  Printf.sprintf "{\"id\":%d,\"proc\":%d,\"time\":%.3f,\"vc\":%s,\"ev\":%S,%s}"
    e.id e.proc e.time
    (json_int_list (Array.to_list e.vc))
    (kind_name e.kind) (kind_fields e.kind)

let pp ppf e =
  Format.fprintf ppf "#%d p%d @@%.1f %s" e.id e.proc e.time (to_json e)

(* {1 JSONL decoding}

   Lines are parsed by {!Dsm_util.Jflat} (the flat one-line objects
   [to_json] produces: numbers, booleans, quoted strings and int arrays)
   and decoded field by field. Used to re-check trace files offline
   ([dsm_run --trace] output fed back to the checker) and to
   round-trip-test the encoding. *)

module Jflat = Dsm_util.Jflat

exception Parse_error = Jflat.Parse_error

(* Internal: lets {!parse_line} tell an event kind this parser does not
   know (a trace written by a newer binary) apart from malformed input. *)
exception Unknown_kind_exn of string

let parse_exn line =
  let o = Jflat.parse_exn line in
  let num = Jflat.num o
  and int = Jflat.int o
  and bool = Jflat.bool o
  and str = Jflat.str o
  and ints = Jflat.ints o in
  let kind =
    match str "ev" with
    | "page_fault" ->
        Page_fault
          { page = int "page"; write = bool "write"; fetch = bool "fetch" }
    | "twin" -> Twin { page = int "page" }
    | "diff_create" ->
        Diff_create
          {
            page = int "page";
            seq = int "seq";
            bytes = int "bytes";
            write_all = bool "write_all";
          }
    | "diff_fetch" ->
        Diff_fetch
          {
            writer = int "writer";
            page = int "page";
            after = int "after";
            upto = int "upto";
          }
    | "diff_apply" ->
        Diff_apply
          {
            writer = int "writer";
            page = int "page";
            order = int "order";
            upto_seq = int "upto_seq";
            bytes = int "bytes";
          }
    | "fetch_done" -> Fetch_done { page = int "page"; full = bool "full" }
    | "notice_send" -> Notice_send { seq = int "seq"; pages = ints "pages" }
    | "notice_apply" ->
        Notice_apply
          {
            writer = int "writer";
            seq = int "seq";
            page = int "page";
            invalidated = bool "invalidated";
          }
    | "barrier_arrive" -> Barrier_arrive { epoch = int "epoch" }
    | "barrier_depart" -> Barrier_depart { epoch = int "epoch" }
    | "lock_request" -> Lock_request { lock = int "lock" }
    | "lock_grant" ->
        Lock_grant
          {
            lock = int "lock";
            grantor = int "grantor";
            notices = int "notices";
          }
    | "validate" ->
        Validate
          {
            access = str "access";
            npages = int "npages";
            async = bool "async";
            w_sync = bool "w_sync";
          }
    | "push_send" ->
        Push_send { dst = int "dst"; bytes = int "bytes"; seq = int "seq" }
    | "push_recv" ->
        Push_recv
          {
            src = int "src";
            bytes = int "bytes";
            seq = int "seq";
            pages = ints "pages";
          }
    | "push_rollback" ->
        Push_rollback
          { page = int "page"; writer = int "writer"; seq = int "seq" }
    | "broadcast" ->
        Broadcast { bytes = int "bytes"; requesters = ints "requesters" }
    | "home_flush" ->
        Home_flush
          {
            page = int "page";
            home = int "home";
            seq = int "seq";
            bytes = int "bytes";
          }
    | "home_fetch" ->
        Home_fetch { page = int "page"; home = int "home"; bytes = int "bytes" }
    | "inval_send" -> Inval_send { page = int "page"; dst = int "dst" }
    | "inval_ack" -> Inval_ack { page = int "page"; writer = int "writer" }
    | "downgrade" -> Downgrade { page = int "page"; reader = int "reader" }
    | "proto_switch" ->
        Proto_switch
          {
            page = int "page";
            proto = str "proto";
            owner = int "owner";
            epoch = int "epoch";
          }
    | "plan_applied" ->
        Plan_applied
          {
            lo_page = int "lo_page";
            hi_page = int "hi_page";
            proto = str "proto";
            owner = int "owner";
          }
    | "obj_region" ->
        Obj_region
          {
            base_page = int "base_page";
            npages = int "npages";
            obj_size = int "obj_size";
            count = int "count";
          }
    | "obj_skip" -> Obj_skip { page = int "page"; slots = ints "slots" }
    | "crash" -> Crash { epoch = int "epoch" }
    | "restart" -> Restart { epoch = int "epoch"; ckpt = int "ckpt" }
    | "suspect" -> Suspect { peer = int "peer"; attempts = int "attempts" }
    | "quorum_write" ->
        Quorum_write
          {
            page = int "page";
            seq = int "seq";
            acks = ints "acks";
            needed = int "needed";
          }
    | "quorum_read" ->
        Quorum_read
          {
            page = int "page";
            from = int "from";
            acks = ints "acks";
            needed = int "needed";
          }
    | "ckpt" -> Ckpt { id = int "ckpt_id"; ckpt_epoch = int "epoch" }
    | "msg_drop" ->
        Msg_drop
          {
            msg = int "msg";
            src = int "src";
            dst = int "dst";
            attempt = int "attempt";
          }
    | "msg_dup" ->
        Msg_dup { msg = int "msg"; src = int "src"; dst = int "dst" }
    | "retransmit" ->
        Retransmit
          {
            msg = int "msg";
            src = int "src";
            dst = int "dst";
            attempt = int "attempt";
          }
    | "timeout_fire" ->
        Timeout_fire
          {
            msg = int "msg";
            src = int "src";
            dst = int "dst";
            attempt = int "attempt";
            backoff_us = num "backoff_us";
          }
    | "ack" ->
        Ack
          {
            msg = int "msg";
            src = int "src";
            dst = int "dst";
            attempts = int "attempts";
          }
    | ev -> raise (Unknown_kind_exn ev)
  in
  {
    id = int "id";
    proc = int "proc";
    time = num "time";
    vc = Array.of_list (ints "vc");
    kind;
  }

(* {1 Tolerant line/file entry points}

   A trace file may have been written by a newer binary (event kinds this
   parser does not know) or cut short by a crash mid-write (truncated final
   line). Offline consumers must degrade to warnings in both cases instead
   of dying mid-file, so the checker can still validate every event it does
   understand. *)

type parse_result = Event of t | Unknown_kind of string | Malformed of string

let parse_line line =
  match parse_exn line with
  | e -> Event e
  | exception Unknown_kind_exn ev -> Unknown_kind ev
  | exception Parse_error msg -> Malformed msg

let of_json line =
  match parse_exn line with
  | e -> e
  | exception Unknown_kind_exn ev ->
      raise (Parse_error (Printf.sprintf "unknown event kind %S" ev))

type load = {
  events : t list;  (* every successfully parsed event, in file order *)
  warnings : (int * string) list;  (* (1-based line number, message) *)
  unknown_kinds : int;  (* lines skipped because of an unrecognized kind *)
}

let load_jsonl path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let events = ref [] and warnings = ref [] and unknown = ref 0 in
      let lineno = ref 0 in
      (* only a final line without its newline can be torn by a crash *)
      let len = in_channel_length ic in
      let torn_tail =
        len > 0
        && begin
             seek_in ic (len - 1);
             let c = input_char ic in
             seek_in ic 0;
             c <> '\n'
           end
      in
      let rec go () =
        match input_line ic with
        | exception End_of_file -> ()
        | line ->
            incr lineno;
            let torn = torn_tail && pos_in ic = len in
            (if String.trim line = "" then ()
             else
               match parse_exn line with
               | e -> events := e :: !events
               | exception Unknown_kind_exn ev ->
                   incr unknown;
                   warnings :=
                     (!lineno, Printf.sprintf "unknown event kind %S" ev)
                     :: !warnings
               | exception Parse_error msg ->
                   warnings :=
                     ( !lineno,
                       if torn then
                         Printf.sprintf
                           "truncated final line (crash mid-write?): %s" msg
                       else Printf.sprintf "malformed line: %s" msg )
                     :: !warnings);
            go ()
      in
      go ();
      {
        events = List.rev !events;
        warnings = List.rev !warnings;
        unknown_kinds = !unknown;
      })
