(* Shared record types of the TreadMarks run-time. Kept in one module so
   that the protocol, synchronization, and augmented-interface modules can
   share them without circular dependencies; the operations live in
   {!Protocol}, {!Sync_ops} and {!Validate}. *)

(* The sparse processor-set and watermark structures live in [Dsm_util]
   (the trace checker shares them); every run-time module opens [Types]. *)
module Pset = Dsm_util.Pset
module Wmap = Dsm_util.Wmap

(* Access types of the augmented interface (Figure 3 of the paper). *)
type access =
  | Read
  | Write
  | Read_write
  | Write_all  (** entire section written before read: consistency disabled *)
  | Read_write_all
      (** entire section written, but partly read first: fetch, no twins *)

let access_to_string = function
  | Read -> "READ"
  | Write -> "WRITE"
  | Read_write -> "READ&WRITE"
  | Write_all -> "WRITE_ALL"
  | Read_write_all -> "READ&WRITE_ALL"

(* Per-page protocol metadata of one processor. The watermark maps are
   sparse ({!Wmap}): dense per-writer arrays would cost O(nprocs) words
   per (processor, page) pair, which forbids 1024-processor clusters. *)
type page_meta = {
  applied : Wmap.t;  (* per-writer interval seq applied into my copy *)
  known : Wmap.t;  (* per-writer highest interval seq noticed *)
  mutable write_all : Dsm_rsd.Range.t;
      (* byte ranges (absolute) validated WRITE_ALL; sticky until the page's
         diff is materialized *)
  mutable lazy_hi : int;
      (* highest released interval seq whose modifications to this page have
         not been materialized as a diff yet (lazy diffing); 0 = none *)
  mutable lazy_vcsum : int;
      (* vector-clock sum at that release: the happens-before order stamp the
         materialized diff must carry (materialization happens much later) *)
  mutable home_flushed : int;
      (* HLRC only: my highest interval seq whose modifications to this page
         have been flushed into the home copy; 0 = none *)
  mutable ob_stale : Pset.t;
      (* object-granularity pages only: slots (page_offset / obj_size) some
         known-but-unapplied foreign interval wrote. A validate whose
         objects are all disjoint from this set may skip the fetch; always
         empty for page-granular pages, and cleared whenever the copy
         becomes fully current *)
}

(* Per-processor run-time state. *)
type pstate = {
  me : int;
  pt : Dsm_mem.Page_table.t;
  vc : Vc.t;
  dirty : (int, unit) Hashtbl.t;
      (* pages write-enabled in the current interval; a set — {!Protocol.release}
         takes a sorted snapshot so behaviour stays deterministic *)
  meta : page_meta Dsm_mem.Page_map.t;
      (* dense by page number; an entry exists for every page this
         processor has touched or heard a write notice for *)
  mutable quiet : Bytes.t;
      (* dense by page number, read and written only by {!Protocol}: 0 the
         page applies write notices eagerly; 1 quiet (invalid, with no
         pending lazy diff, not in an object region); 2 quiet with notices
         not yet folded into [known]. Pages past the end are 0 *)
  logs : Ilog.t array;  (* the system's interval logs, for folding *)
  page_writers : Ilog.writers;  (* shared by every log: page -> writers *)
  pending_async : (int, float) Hashtbl.t;  (* page -> response arrival time *)
  mutable pending_wsync : wsync_req list;
  mutable barrier_epoch : int;
  mutable notices_sent_seq : int;
      (* my highest interval seq already shipped on a barrier arrival;
         arrival-message sizes count only notices newer than this *)
  mutable partial_push : (int * int * int) list;
      (* (page, writer, seq) for push data that only partially covered the
         page: the next barrier rolls the applied watermark back so that the
         whole page becomes consistent again ("the run-time system ensures
         that ... all data is made consistent ... after that global
         synchronization", Section 3.1.2) *)
}

and wsync_req = {
  wr_ranges : Dsm_rsd.Range.t;
  wr_access : access;
  wr_async : bool;
}

type lock = {
  lid : int;
  mutable held_by : int option;
  mutable last_releaser : int;
  mutable release_clock : float;
  mutable release_vc : Vc.t option;  (* None until first release *)
  mutable pending : (int * float) list;  (* (pid, request arrival time) *)
  mutable granted : int option;
  mutable grant_clock : float;
}

(* Decision, made at barrier departure, to broadcast data instead of sending
   per-requester responses (Section 3.2.1: "Fetch_diffs_w_sync uses broadcast
   if the processor can determine that it sends the same data to all other
   processors"). *)
type bcast_plan = {
  bp_src : int;
  bp_pages : int list;
  bp_base : float;  (* broadcast start time (barrier departure) *)
  bp_per_hop : float;  (* one tree-hop transfer time *)
  bp_requesters : int list;
  bp_bytes : int;
}

type barrier = {
  mutable epoch : int;
  mutable arrived : int;
  arrival_clock : float array;  (* per proc, at arrival-send completion *)
  mutable departure_clock : float;
      (* fault-free departure arrival: the broadcast base and the send time
         of piggy-backed answers *)
  resume_clock : float array;  (* per proc, when its departure arrived *)
  mutable departure_vc : Vc.t;  (* pointwise max of all vcs at departure *)
  wsync_tbl : (int, (int * wsync_req list) list) Hashtbl.t;
      (* epoch -> requests piggy-backed on arrival messages, per requester *)
  wsync_done : (int, int) Hashtbl.t;
      (* epoch -> processors done with that epoch's departure processing;
         when the count reaches nprocs the epoch's wsync_tbl entry is dead
         and both entries are pruned (the tables stay bounded over a run) *)
  mutable bcast_plan : (int * bcast_plan) option;  (* (epoch, plan) *)
}

type push_msg = {
  pm_arrival : float;
  pm_payload : (int * Bytes.t) list;  (* (absolute address, bytes) runs *)
  pm_seq : int;  (* sender's interval seq covering the pushed writes *)
  pm_notices : (int * int list) list;  (* sender's new (seq, pages) *)
  pm_vc : Vc.t;
}

(* Per-page directory entry of the single-writer invalidate protocol
   ({!Invalidate}); lives conceptually on processor [page mod nprocs].
   [iv_owner] always holds an up-to-date copy; when [iv_excl] it is the
   only valid copy (M), otherwise every processor in [iv_sharers] holds
   one (S). Before the first directory transaction every processor's
   zero-filled initial copy is valid, so a fresh entry lists them all. *)
type iv_entry = {
  mutable iv_owner : int;
  mutable iv_excl : bool;
  mutable iv_sharers : int list;  (* sorted; includes the owner *)
}

(* The per-page coherence policy: which protocol governs a page. The
   fixed backends run one for every page; the adaptive backend switches
   pages between them. *)
type page_proto = P_lrc | P_hlrc | P_inval

let page_proto_name = function
  | P_lrc -> "lrc"
  | P_hlrc -> "hlrc"
  | P_inval -> "inval"

(* Per-page sharing-pattern observations of the adaptive backend, reset at
   each classification window. Populations are {!Pset} processor sets so
   the cluster size is not capped by a bitmask (scaling runs reach 1024
   simulated processors). *)
type adapt_page = {
  mutable ap_proto : page_proto;
  mutable ap_readers : Pset.t;  (* procs that read-faulted/validated *)
  mutable ap_writers : Pset.t;  (* procs that write-faulted/validated *)
  mutable ap_last_writer : int;  (* previous window's single writer, -1 *)
  mutable ap_migrations : int;  (* windows in which the writer changed *)
}

(* One object-granularity shared region ({!Tmk.Alloc.objs}): [or_count]
   packed fixed-size objects starting at a page boundary, [or_obj_size]
   bytes each (a multiple of 8 dividing the page size, so an object never
   straddles pages). *)
type obj_region = {
  or_base_page : int;
  or_npages : int;
  or_obj_size : int;
  or_count : int;
}

(* Scratch of the homeless fetch ({!Protocol.fetch}), one per system and
   reused by every call: a fetch never blocks, so calls do not overlap.
   Arrays of length [nprocs] are indexed by writer unless noted. *)
type fetch_scratch = {
  whash : int array;  (* [Hashtbl.hash] of each writer id *)
  head : int array;  (* a writer's newest request in [reqs]; -1 for none *)
  mat : float array;  (* a writer's materialization cost in this fetch *)
  writers : int array;  (* by position: writers in order of first request *)
  mutable nw : int;
  mat_ws : int array;  (* by position: the writers whose [mat] is non-zero *)
  mutable nmat : int;
  need : int array;
      (* by position: one page's stale writers, ascending, with their
         applied and known watermarks in [need_after] and [need_upto] *)
  need_after : int array;
  need_upto : int array;
  mutable reqs : int array;
      (* four ints per request: page index, after, upto, and the index of
         the same writer's previous request (-1 for none) *)
  mutable nreq : int;
  buckets : int array;  (* per hash bucket of the response order *)
  order : int array;  (* by position: the response order *)
}

type system = {
  cluster : Dsm_sim.Cluster.t;
  net : Dsm_net.Net.t;
      (* reliable transport over the (possibly faulty) modeled network; all
         protocol messages go through it. With a fault-free plan it is a
         bit-identical pass-through to the [cluster] cost functions. *)
  space : Dsm_mem.Addr_space.t;
  store : Diff_store.t;
  fx : fetch_scratch;
  states : pstate array;
  logs : Ilog.t array;  (* per proc: write-notice log indexed by seq *)
  locks : (int, lock) Hashtbl.t;
  barrier : barrier;
  pushbox : (int * int, push_msg) Hashtbl.t;  (* (src, dst) *)
  mutable push_ranges : (Dsm_rsd.Section.t list array * Dsm_rsd.Range.t array) list;
      (* {!Validate.push}'s per-processor section arrays, each with its
         normalized byte ranges: every processor of a push epoch passes
         the same arrays, so each is normalized once, not once per
         sender. Keyed by a copy of the array, compared element-wise by
         physical equality; the most recent few are kept *)
  page_size : int;
  page_shift : int;
      (* log2 page_size when the page size is a power of two, -1 otherwise;
         the Shm fast path replaces the per-access div/mod with shift/mask *)
  page_mask : int;  (* page_size - 1 when a power of two, 0 otherwise *)
  nprocs : int;
  homes : (int, int) Hashtbl.t;
      (* HLRC only: page -> home processor, filled lazily by the active
         home-assignment policy; empty under the homeless backend *)
  iv_dir : (int, iv_entry) Hashtbl.t;
      (* invalidate/adaptive only: per-page directory entries, created on
         the first directory transaction for a page *)
  adapt : (int, adapt_page) Hashtbl.t;
      (* adaptive only: per-page protocol mode + sharing observations *)
  mutable adapt_tick : int;
      (* adaptive only: barrier epochs since the last classification *)
  ft : Dsm_ft.Ft.t;
      (* crash-stop fault-tolerance state: crash queues, down windows,
         lost-page sets and checkpoints ({!Recover} interprets them).
         Inert — every hook a single test — unless the configuration sets
         [replicas > 1] or a crash schedule *)
  bops : backend_ops;
      (* the coherence backend driving this system; selected once in
         {!Tmk.make} from [Config.backend] and never changed afterwards *)
  mutable trace : Dsm_trace.Sink.t option;
      (* protocol event sink; [None] (the default) makes every
         instrumentation site a single comparison with no allocation, and
         emission never touches clocks or statistics *)
  mutable pending_plan : Proto_plan.t option;
      (* static protocol-placement plan ([dsm_run --plan]) awaiting
         application; consumed at the start of the first {!Tmk.run} so the
         later digest pass does not re-seed over the run's final state *)
  mutable obj_sizes : int array;
      (* dense by page number: the object size of a page inside an
         object-granularity region ({!Tmk.Alloc.objs}), 0 outside any;
         empty (and all hooks dead) for the kernels. Read through
         {!Protocol.obj_size}. The slots each interval wrote on such a
         page travel with its write notice in the writer's {!Ilog}, and
         grow the receiver's [ob_stale] when the notice is applied *)
  mutable obj_decls : obj_region list;
      (* declaration order reversed; {!Tmk.run} emits one [Obj_region]
         trace event per region so the checker learns the geometry *)
  mutable has_objs : bool;
      (* single-test short-circuit guarding every object-granularity hook
         on the protocol paths the kernels share *)
}

(* Per-processor handle passed to application code. [st] caches
   [sys.states.(p)]: every Shm access starts from the handle, and the
   cached field saves an array bound check plus two loads on that path. *)
and t = { sys : system; p : int; st : pstate }

(* One coherence backend: what differs between the protocols once every
   fault, validate, piggy-backed answer and push runs through the shared
   entry points of {!Fetch}, {!Sync_ops} and {!Validate}. Each backend
   module exports one such value ({!Protocol.backend}, {!Hlrc.backend},
   {!Invalidate.backend}, {!Adaptive.backend}). *)
and backend_ops = {
  b_name : string;
  b_proto : page_proto option;
      (* the policy governing every page; [None]: chosen per page by the
         adaptive classifier *)
  b_release : system -> int -> (int * int list) option;
      (* close the current interval: returns the new log entry *)
  b_departure :
    system ->
    epoch:int ->
    departure_clock:float ->
    (int * wsync_req list) list ->
    (int * bcast_plan) option;
      (* runs once per barrier, in the last arriver's turn at quiescence:
         may plan a broadcast answer to the piggy-backed requests (lrc) or
         reclassify pages (adaptive) *)
}

let state t = t.st
let cfg t = t.sys.cluster.Dsm_sim.Cluster.cfg
let stats t = t.sys.cluster.Dsm_sim.Cluster.stats.(t.p)
