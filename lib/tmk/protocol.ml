(* Core lazy-release-consistency protocol operations: release (lazy diff
   creation), write-notice application (invalidation), the transfer
   pipeline every data-moving policy runs on (plan, move with the charging
   modes of the base and augmented run-times, install), and the homeless
   protocol's policy on top of it: per-writer diff fetching. *)

open Types
module Cluster = Dsm_sim.Cluster
module Config = Dsm_sim.Config
module Stats = Dsm_sim.Stats
module Net = Dsm_net.Net
module Page_table = Dsm_mem.Page_table
module Page_map = Dsm_mem.Page_map
module Diff = Dsm_mem.Diff
module Range = Dsm_rsd.Range
module Prof = Dsm_prof.Prof

(* Trace emission. Call sites guard with [sys.trace <> None] BEFORE
   building the event payload, so a disabled trace allocates nothing.
   Emission reads the clock and vector clock but never charges: tracing
   cannot perturb the cost model. *)
let emit sys p kind =
  match sys.trace with
  | None -> ()
  | Some sink ->
      Dsm_trace.Sink.emit sink ~proc:p
        ~time:(Cluster.time sys.cluster p)
        ~vc:sys.states.(p).vc kind

(* The current interval's write set, as a sorted page list (dirty is a
   hash set; every consumer needs a deterministic order). *)
let dirty_pages st = Hashtbl.fold (fun page () acc -> page :: acc) st.dirty []
let in_dirty st page = Hashtbl.mem st.dirty page
let mark_dirty st page =
  if not (Hashtbl.mem st.dirty page) then Hashtbl.replace st.dirty page ()

(* {1 Quiet pages}

   The receiver's half of lazy diffing. A write notice for a page the
   processor already holds invalid, with no pending lazy diff of its own
   and outside any object region, changes nothing but the page's [known]
   watermark — and nothing reads that until the page's metadata is next
   used. Such a page is {e quiet}: a notice for it only marks it pending
   in [st.quiet], and {!meta} folds [known] in from the writers' page
   index when the page is next used. The fold is exact: the eager
   [known.(q)] is the newest interval of [q] listing the page up to
   [vc.(q)] (every window up to [vc.(q)] was pulled), raised by explicit
   sets that still write the map; [vc.(q)] only grows between folds, and
   a fold only raises.

   Invariant: a page in state [quiet] or [pending] is [No_access], has
   metadata, has [lazy_hi = 0] and is not in an object region. {!grant}
   is the only way out of [No_access]; it folds the page and makes it
   eager again. *)

let eager = '\000'
let quiet = '\001'
let pending = '\002'

let qstate st page =
  if page < Bytes.length st.quiet then Bytes.unsafe_get st.quiet page
  else eager

let set_qstate st page c =
  let len = Bytes.length st.quiet in
  if page >= len && c <> eager then begin
    let b = Bytes.make (max (page + 1) (2 * len)) eager in
    Bytes.blit st.quiet 0 b 0 len;
    st.quiet <- b
  end;
  if page < Bytes.length st.quiet then Bytes.unsafe_set st.quiet page c

let fold st page m =
  Ilog.iter_newest st.page_writers st.logs page ~upto:(Vc.get st.vc)
    (fun q s ->
      if q <> st.me && s > Wmap.get m.known q then Wmap.set m.known q s)

let new_meta () =
  {
    applied = Wmap.create ();
    known = Wmap.create ();
    write_all = Range.empty;
    lazy_hi = 0;
    lazy_vcsum = 0;
    home_flushed = 0;
    ob_stale = Pset.empty;
  }

let meta st page =
  let m = Page_map.find_or_add st.meta page new_meta in
  if qstate st page = pending then begin
    fold st page m;
    set_qstate st page quiet
  end;
  m

(* [p]'s copy misses data: some other writer's known watermark is above
   its applied one. *)
let stale p m =
  Wmap.exists (fun q kv -> q <> p && kv > Wmap.get m.applied q) m.known

(* Raise [pg]'s protection to [prot]: the only way a page leaves
   [No_access]. A quiet page is folded and applies notices eagerly again. *)
let grant st page pg prot =
  if qstate st page <> eager then begin
    ignore (meta st page);
    set_qstate st page eager
  end;
  pg.Page_table.prot <- prot

(* Fold every pending page (before a checkpoint snapshots [known]). *)
let fold_all st =
  for page = 0 to Bytes.length st.quiet - 1 do
    if qstate st page = pending then ignore (meta st page)
  done

(* Every page applies notices eagerly again (after a wipe). *)
let forget_quiet st = st.quiet <- Bytes.empty

(* Pages in state quiet or pending, ascending. *)
let quiet_pages st =
  let acc = ref [] in
  for page = Bytes.length st.quiet - 1 downto 0 do
    if qstate st page <> eager then acc := page :: !acc
  done;
  !acc

(* {1 Object granularity}

   Pages inside a {!Tmk.Alloc.objs} region hold packed fixed-size objects,
   and the protocol tracks staleness per object slot (page offset divided
   by the object size) on top of the per-page watermarks: releases record
   which slots each interval wrote (its extents in the writer's {!Ilog}),
   applied notices grow the receiver's [ob_stale] slot set, and a validate
   whose objects are all disjoint from [ob_stale] may skip the fetch
   entirely — the false-sharing remedy of sub-page allocation. Every hook
   is guarded by [sys.has_objs] or reads [sys.obj_sizes], empty without
   object regions, so the paper's kernels execute bit-identically. *)

(* The object size of [page], 0 outside any object region. *)
let obj_size sys page =
  if page < Array.length sys.obj_sizes then
    Array.unsafe_get sys.obj_sizes page
  else 0

let obj_all_slots sys osz =
  Pset.of_list (List.init (sys.page_size / osz) Fun.id)

(* Slots of [page] (object size [osz]) covered by [ranges]; a partially
   covered slot counts as covered. *)
let obj_slots_of_ranges sys ~page ~osz ranges =
  let base = page * sys.page_size in
  let slots = ref Pset.empty in
  Range.iter
    (Range.clip_to_page ~page_size:sys.page_size ~page ranges)
    (fun ~lo ~hi ->
      for s = (lo - base) / osz to (hi - 1 - base) / osz do
        slots := Pset.add s !slots
      done);
  !slots

(* Group a sorted page list into runs of consecutive page numbers; protection
   operations cost one call per contiguous run. *)
let runs_of_pages pages =
  match List.sort_uniq compare pages with
  | [] -> []
  | p0 :: rest ->
      let rec go start len = function
        | [] -> [ (start, len) ]
        | p :: rest when p = start + len -> go start (len + 1) rest
        | p :: rest -> (start, len) :: go p 1 rest
      in
      go p0 1 rest

let protect_runs sys p pages =
  let st = sys.cluster.Cluster.stats.(p) in
  List.iter
    (fun (_, len) ->
      st.Stats.mprotects <- st.Stats.mprotects + 1;
      Cluster.mm_op sys.cluster p ~npages:len)
    (runs_of_pages pages)

(* {1 Release}

   Lazy diffing, as in TreadMarks: a release starts a new interval and
   records write notices for the pages dirtied in the closing one. The pages
   are write-protected (so the next interval's writes are detected again),
   but their twins are kept and no diff is computed — that work happens in
   {!materialize} when a remote processor first requests the page's
   modifications, and the one diff covers every interval accumulated since
   the twin was made. *)
let release_pages sys p =
  let st = sys.states.(p) in
  match dirty_pages st with
  | [] -> None
  | dirty ->
      let seq = Vc.get st.vc p + 1 in
      Vc.set st.vc p seq;
      let pages = List.sort_uniq compare dirty in
      let vcsum = Vc.sum st.vc in
      List.iter
        (fun page ->
          let m = meta st page in
          (* A materialized diff covers every interval since the last
             materialization; it is stamped with its FIRST interval's clock.
             Applying spans at their head position is order-correct: the
             forced materialization on foreign notices guarantees that no
             other writer's interval overlapping this page is ordered after
             the span's head, except ones whose own (head) stamps are
             larger. *)
          if m.lazy_hi = 0 then m.lazy_vcsum <- vcsum;
          m.lazy_hi <- seq;
          Wmap.set m.applied p seq;
          Wmap.set m.known p seq;
          let pg = Page_table.entry st.pt page in
          if pg.Page_table.prot = Page_table.Read_write then
            pg.Page_table.prot <- Page_table.Read_only)
        pages;
      protect_runs sys p pages;
      (* object-granularity regions: record which slots this interval
         wrote, so receivers of its write notice can grow their stale-slot
         sets instead of assuming the whole page changed. The twin
         comparison over-approximates (it sees every write since the twin
         was made, possibly spanning intervals) — safe: a larger extent
         only forces more fetching, never less. *)
      let extents =
        if not sys.has_objs then [||]
        else
          Array.of_list
            (List.map
               (fun page ->
                 let osz = obj_size sys page in
                 if osz = 0 then None
                 else
                   let m = meta st page in
                   let pg = Page_table.get st.pt page in
                   Some
                     (if not (Range.is_empty m.write_all) then
                        obj_slots_of_ranges sys ~page ~osz m.write_all
                      else
                        match pg.Page_table.twin with
                        | Some twin ->
                            (* ascending: each add conses at the head *)
                            List.fold_right Pset.add
                              (Diff.changed_slots ~twin
                                 ~current:pg.Page_table.data ~slot_size:osz)
                              Pset.empty
                        | None -> obj_all_slots sys osz))
               pages)
      in
      Hashtbl.reset st.dirty;
      Ilog.add sys.logs.(p) ~seq ~extents pages;
      if sys.trace <> None then
        emit sys p (Dsm_trace.Event.Notice_send { seq; pages });
      Some (seq, pages)

let release sys p =
  Prof.enter Prof.Protocol;
  let r = release_pages sys p in
  Prof.exit Prof.Protocol;
  r

(* Create the pending diff of [writer] for [page], covering every interval
   released since the last materialization (TreadMarks creates one diff for
   the accumulated modifications). Cleans the writer's page: twin dropped,
   page write-protected and removed from the dirty list, so the next write
   faults again. The cost is charged to the writer (the work happens in its
   request-interrupt handler); the returned cost lets the caller extend the
   request's service time. *)
let materialize sys ~writer ~page =
  let st = sys.states.(writer) in
  let m = meta st page in
  if m.lazy_hi = 0 then 0.0
  else begin
    let pstats = sys.cluster.Cluster.stats.(writer) in
    let cfg = sys.cluster.Cluster.cfg in
    let pg = Page_table.get st.pt page in
    let base_addr = page * sys.page_size in
    let cost = ref 0.0 in
    let diff, supersedes =
      if not (Range.is_empty m.write_all) then begin
        (* WRITE_ALL family: the validated ranges stand in verbatim; a plain
           copy, no twin comparison *)
        let segs = ref Diff.empty in
        Range.iter m.write_all (fun ~lo ~hi ->
            let off = lo - base_addr
            and len = hi - lo in
            segs :=
              Diff.merge !segs (Diff.of_range pg.Page_table.data ~off ~len));
        cost :=
          !cost
          +. (cfg.Config.twin_per_byte_us *. float_of_int (Range.size m.write_all));
        ( !segs,
          Range.covers m.write_all ~lo:base_addr
            ~hi:(base_addr + sys.page_size) )
      end
      else begin
        match pg.Page_table.twin with
        | Some twin ->
            pstats.Stats.diffs_created <- pstats.Stats.diffs_created + 1;
            cost :=
              !cost
              +. (cfg.Config.diff_create_per_byte_us
                 *. float_of_int sys.page_size);
            (Diff.create ~twin ~current:pg.Page_table.data, false)
        | None ->
            (* write-enabled without twin happens only under WRITE_ALL *)
            (Diff.full pg.Page_table.data, true)
      end
    in
    if not (Diff.is_empty diff) then
      Diff_store.add sys.store ~writer ~page ~seq:m.lazy_hi
        ~vcsum:m.lazy_vcsum ~diff ~supersedes;
    Diff_store.note_applied sys.store ~writer ~page ~by:writer ~seq:m.lazy_hi;
    if sys.trace <> None then
      emit sys writer
        (Dsm_trace.Event.Diff_create
           {
             page;
             seq = m.lazy_hi;
             bytes = Diff.size_bytes diff;
             write_all = not (Range.is_empty m.write_all);
           });
    m.lazy_hi <- 0;
    if in_dirty st page then begin
      (* The writer is still modifying this page in its current (unreleased)
         interval. The diff above conservatively includes those bytes; keep
         the twin and the WRITE_ALL marker so that the next materialization
         re-covers everything since, and leave the page writable. *)
      ()
    end
    else begin
      m.write_all <- Range.empty;
      Page_table.drop_twin pg;
      (* write-protect; never upgrade an invalidated page back to readable *)
      if pg.Page_table.prot = Page_table.Read_write then
        pg.Page_table.prot <- Page_table.Read_only;
      pstats.Stats.mprotects <- pstats.Stats.mprotects + 1;
      let mm =
        cfg.Config.mm_base_us
        +. (cfg.Config.mm_per_inuse_page_us
           *. float_of_int sys.cluster.Cluster.pages_in_use)
        +. cfg.Config.mm_per_op_page_us
      in
      cost := !cost +. mm
    end;
    (* the caller accounts the cost: as request service time (the work runs
       in the writer's interrupt handler) *)
    !cost
  end

(* {1 Write notices} *)

(* Record notices of [writer]'s interval [seq] over [pages]; invalidate any
   local copy that becomes stale.

   When a notice arrives for a page with pending un-materialized local
   modifications, the local diff is created first (as in TreadMarks):
   otherwise a later accumulated diff would span the other writer's
   ordered-in-between interval and could be applied out of order.

   A notice for a quiet page only marks it pending; a page the notice
   leaves invalid becomes quiet when it qualifies. *)
let apply_notice sys p ~writer ~seq ~pages ~extents =
  if writer <> p then begin
    let st = sys.states.(p) in
    let invalidated = ref [] in
    for i = 0 to Array.length pages - 1 do
      let page = pages.(i) in
      if qstate st page <> eager then begin
        set_qstate st page pending;
        if sys.trace <> None then
          emit sys p
            (Dsm_trace.Event.Notice_apply
               { writer; seq; page; invalidated = true })
      end
      else
      let m = meta st page in
      if seq > Wmap.get m.known writer then Wmap.set m.known writer seq;
      if Wmap.get m.known writer > Wmap.get m.applied writer then begin
        (let osz = obj_size sys page in
         if osz > 0 then
           (* grow the stale-slot set by the interval's recorded
              extent; a missing extent (foreign pre-allocation history)
              conservatively stales the whole page *)
           let slots =
             match Ilog.extent extents i with
             | Some s -> s
             | None -> obj_all_slots sys osz
           in
           m.ob_stale <- Pset.union m.ob_stale slots);
        if m.lazy_hi > 0 then
          Cluster.charge sys.cluster p (materialize sys ~writer:p ~page);
        if Page_table.invalidate st.pt page then
          invalidated := page :: !invalidated
      end;
      let invalid =
        (Page_table.entry st.pt page).Page_table.prot = Page_table.No_access
      in
      if sys.trace <> None then
        emit sys p
          (Dsm_trace.Event.Notice_apply
             { writer; seq; page; invalidated = invalid });
      if invalid && m.lazy_hi = 0 && obj_size sys page = 0 then
        set_qstate st page quiet
    done;
    if !invalidated <> [] then protect_runs sys p !invalidated
  end

(* The size, in notices, of the write notices [p] is missing up to [upto]
   (for message-size accounting). An object-granularity page's per-slot
   extent travels with its notice, modeled as one extra notice-sized
   entry per page. *)
let count_notices sys p ~upto =
  let st = sys.states.(p) in
  let count = ref 0 in
  for q = 0 to sys.nprocs - 1 do
    let lo = Vc.get st.vc q
    and hi = Vc.get upto q in
    if q <> p && hi > lo then
      count :=
        !count
        + Ilog.count_window sys.logs.(q) ~lo ~hi
        + Ilog.count_obj_window sys.logs.(q) ~lo ~hi
  done;
  !count

(* Apply, from the global interval logs, every notice of every processor [q]
   with [vc_me.(q) < seq <= upto.(q)]; advance the vector clock. *)
let pull_notices sys p ~upto =
  Prof.enter Prof.Protocol;
  let st = sys.states.(p) in
  for q = 0 to sys.nprocs - 1 do
    if q <> p && Vc.get upto q > Vc.get st.vc q then begin
      let lo = Vc.get st.vc q
      and hi = Vc.get upto q in
      Ilog.iter_desc sys.logs.(q) ~lo ~hi (fun seq pages extents ->
          apply_notice sys p ~writer:q ~seq ~pages ~extents);
      Vc.set st.vc q hi
    end
  done;
  Prof.exit Prof.Protocol

(* {1 The transfer pipeline}

   Every page transfer of the data-moving policies — the homeless
   protocol's per-writer diffs below, the home copies of {!Hlrc} — runs
   the same three steps: the policy {e plans} (picks the stale pages and
   groups them by the peer that serves them), {!move} sends one response
   per peer and charges it once according to the mode, and the policy
   {e installs} the data (watermarks, stale slots, statistics, trace). *)

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

let is_async = function Async | Async_at _ -> true | _ -> false

(* One peer's response to a planned transfer. *)
type response = {
  peer : int;
  pages : int list;
  nreq : int;  (* request entries, 16 bytes each *)
  data : int;  (* payload bytes *)
  hdr : int;  (* per-diff framing bytes *)
  ndiffs : int;  (* historical diffs carried: each costs service time *)
  mat : float;  (* lazy-diff materialization the peer performed for it *)
}

(* An asynchronous response for [page] arrives at [arrival]; the fault
   handler consumes it (the latest arrival wins). *)
let await st page arrival =
  let prev =
    Option.value ~default:0.0 (Hashtbl.find_opt st.pending_async page)
  in
  Hashtbl.replace st.pending_async page (Float.max prev arrival)

(* One data message [r.peer] sends to [p] at [at], its sending cost
   stolen from the peer's cpu; returns the arrival at [p]. *)
let answer_at sys p r at bytes =
  let cfg = sys.cluster.Cluster.cfg in
  Cluster.charge sys.cluster r.peer
    (cfg.Config.msg_overhead_us
    +. (cfg.Config.per_byte_us *. float_of_int bytes));
  Net.deliver sys.net ~src:r.peer ~dst:p ~bytes
    ~at:
      (at
      +. (cfg.Config.per_byte_us *. float_of_int bytes)
      +. cfg.Config.wire_latency_us +. cfg.Config.msg_overhead_us)

let move sys p mode r =
  let cfg = sys.cluster.Cluster.cfg in
  let resp_bytes = r.data + r.hdr in
  match mode with
  | Rpc ->
      Net.rpc sys.net ~src:p ~dst:r.peer ~req_bytes:(16 * r.nreq) ~resp_bytes
        ~service:
          (cfg.Config.diff_service_us +. r.mat
          +. (2.0 *. float_of_int r.ndiffs))
  | Prepaid -> Cluster.charge sys.cluster r.peer r.mat
  | Piggyback at ->
      Cluster.charge sys.cluster r.peer r.mat;
      if resp_bytes > 0 then
        Cluster.sync_clock sys.cluster p (answer_at sys p r at resp_bytes)
  | Async ->
      let arrival_at_peer =
        Net.send sys.net ~src:p ~dst:r.peer ~bytes:(16 * r.nreq)
      in
      let service =
        cfg.Config.interrupt_us +. cfg.Config.msg_overhead_us
        +. cfg.Config.diff_service_us +. r.mat
        +. (2.0 *. float_of_int r.ndiffs)
        +. cfg.Config.msg_overhead_us
        +. (cfg.Config.per_byte_us *. float_of_int resp_bytes)
      in
      Cluster.charge sys.cluster r.peer service;
      (* back-to-back requests serialize at the peer's handler *)
      let start =
        Cluster.occupy sys.cluster r.peer ~arrival:arrival_at_peer
          ~handler_time:service
      in
      let arrival =
        Net.deliver sys.net ~src:r.peer ~dst:p ~bytes:resp_bytes
          ~at:(start +. service +. cfg.Config.wire_latency_us)
      in
      List.iter (fun page -> await sys.states.(p) page arrival) r.pages
  | Async_at at ->
      (* the historical cost model: an asynchronous piggy-backed answer
         carries the payload only — no per-diff framing, and the
         materialization it triggered is not charged *)
      if r.data > 0 then begin
        let arrival = answer_at sys p r at r.data in
        List.iter (fun page -> await sys.states.(p) page arrival) r.pages
      end

(* Run a planned transfer: per peer group, [respond] builds the peer's
   response (staging its data when it is installed now), {!move} charges
   it, and [install] applies it — unless the fault handler completes the
   transfer later. *)
let transfer sys p mode groups ~respond ~install =
  List.iter
    (fun g ->
      move sys p mode (respond g);
      if not (is_async mode) then install g)
    groups

(* Apply diff units to a copy and its twin in happens-before order;
   [each] sees every unit first. The sort is stable: units of equal order
   are applied in list order. *)
let apply_units ?(each = ignore) pg units =
  let apply u =
    each u;
    Diff.apply u.Diff_store.payload pg.Page_table.data;
    match pg.Page_table.twin with
    | Some twin -> Diff.apply u.Diff_store.payload twin
    | None -> ()
  in
  match units with
  | [] -> ()
  | [ u ] -> apply u
  | _ ->
      let units = Array.of_list units in
      Array.stable_sort
        (fun a b -> Int.compare a.Diff_store.order b.Diff_store.order)
        units;
      Array.iter apply units

(* [p]'s copy of [page] was just made current: raise every applied
   watermark to the known one and tell the diff store. [restate] also
   restates the watermarks that did not move. *)
let mark_current ?(restate = false) sys p page =
  let m = meta sys.states.(p) page in
  List.iter
    (fun q ->
      let raised = Wmap.get m.known q > Wmap.get m.applied q in
      if raised then Wmap.set m.applied q (Wmap.get m.known q);
      if raised || restate then
        Diff_store.note_applied sys.store ~writer:q ~page ~by:p
          ~seq:(Wmap.get m.applied q))
    (Wmap.union_keys m.known m.applied)

(* {1 The homeless policy: per-writer diffs} *)

let table_size n =
  let size = ref 16 in
  while n > 2 * !size do
    size := 2 * !size
  done;
  !size

let fetch_scratch nprocs =
  {
    whash = Array.init nprocs Hashtbl.hash;
    head = Array.make nprocs (-1);
    mat = Array.make nprocs 0.0;
    writers = Array.make nprocs 0;
    nw = 0;
    mat_ws = Array.make nprocs 0;
    nmat = 0;
    need = Array.make nprocs 0;
    need_after = Array.make nprocs 0;
    need_upto = Array.make nprocs 0;
    reqs = Array.make (4 * nprocs) 0;
    nreq = 0;
    buckets = Array.make (table_size nprocs) 0;
    order = Array.make nprocs 0;
  }

(* Record [q]'s request for page index [i] at the head of its chain. *)
let add_request (fx : fetch_scratch) q i ~after ~upto =
  let k = fx.nreq in
  if 4 * (k + 1) > Array.length fx.reqs then begin
    let grown = Array.make (2 * Array.length fx.reqs) 0 in
    Array.blit fx.reqs 0 grown 0 (4 * k);
    fx.reqs <- grown
  end;
  let r = fx.reqs in
  r.(4 * k) <- i;
  r.((4 * k) + 1) <- after;
  r.((4 * k) + 2) <- upto;
  r.((4 * k) + 3) <- fx.head.(q);
  if fx.head.(q) < 0 then begin
    fx.writers.(fx.nw) <- q;
    fx.nw <- fx.nw + 1
  end;
  fx.head.(q) <- k;
  fx.nreq <- k + 1

(* Compute which writers' diffs [p] is missing for [page_of] (ascending,
   distinct), materialize the pending lazy diffs, and apply supersede
   pruning. Leaves in [sys.fx], per writer, its requests
   [(page index, after, upto)], newest (highest page) first, and its
   materialization cost; the writers in order of first request. Shared by
   the synchronous, piggy-backed and asynchronous fetch paths.
   [only_via r] restricts to diffs processor [r] holds locally (its own,
   or ones it has applied). *)
let gather_needs sys p page_of ?only_via () =
  let (fx : fetch_scratch) = sys.fx and st = sys.states.(p) in
  for k = 0 to fx.nw - 1 do
    fx.head.(fx.writers.(k)) <- -1
  done;
  for k = 0 to fx.nmat - 1 do
    fx.mat.(fx.mat_ws.(k)) <- 0.0
  done;
  fx.nw <- 0;
  fx.nmat <- 0;
  fx.nreq <- 0;
  let supersede = sys.cluster.Cluster.cfg.Config.enable_supersede in
  for i = 0 to Array.length page_of - 1 do
    let page = page_of.(i) in
    let m = meta st page in
    let n = ref 0 in
    (* ascending by writer (a writer with no known entry cannot be
       stale) *)
    Wmap.iter_above
      (fun q kv av ->
        if
          q <> p
          &&
          match only_via with
          | None -> true
          | Some r ->
              q = r
              || Dsm_mem.Page_table.find sys.states.(r).pt page <> None
                 && Wmap.get (meta sys.states.(r) page).applied q >= kv
        then begin
          fx.need.(!n) <- q;
          fx.need_after.(!n) <- av;
          fx.need_upto.(!n) <- kv;
          incr n
        end)
      m.known m.applied;
    let n = !n in
    (* materialize the pending lazy diffs; the cost is charged as request
       service time at each writer *)
    for k = 0 to n - 1 do
      let q = fx.need.(k) in
      let c = materialize sys ~writer:q ~page in
      if c > 0.0 then begin
        if fx.mat.(q) = 0.0 then begin
          fx.mat_ws.(fx.nmat) <- q;
          fx.nmat <- fx.nmat + 1
        end;
        fx.mat.(q) <- fx.mat.(q) +. c
      end
    done;
    (* supersede pruning: if the happens-latest candidate diff overwrites
       the whole page, every older diff of the page is dead data — fetch
       only from that writer (this is what kills the IS diff-accumulation
       under READ&WRITE_ALL) *)
    let qstar =
      if n < 2 || not supersede then -1
      else
        let q = Diff_store.latest_writer sys.store ~page fx.need n in
        if
          q >= 0
          && Diff_store.latest_full_page sys.store ~writer:q ~page <> None
        then q
        else -1
    in
    for k = 0 to n - 1 do
      let q = fx.need.(k) and after = fx.need_after.(k)
      and upto = fx.need_upto.(k) in
      if qstar < 0 || q = qstar then add_request fx q i ~after ~upto
      else begin
        (* pruned history counts as applied without moving data; the
           watermark advance is still an event *)
        if sys.trace <> None then
          emit sys p
            (Dsm_trace.Event.Diff_fetch { writer = q; page; after; upto });
        Wmap.set m.applied q upto;
        Diff_store.note_applied sys.store ~writer:q ~page ~by:p ~seq:upto
      end
    done
  done

(* The order in which [Hashtbl.fold] (or [iter]) visits [n] distinct keys
   that a fresh [Hashtbl.create 8] received through [replace], the [i]th
   inserted key having [Hashtbl.hash] value [hash i]: ascending bucket
   (the hash masked to the table size, which starts at 16 and doubles
   whenever the table holds more than twice as many keys), newest first
   within a bucket. Writes the insertion indices in that order to
   [out.(0 .. n-1)], by one counting pass over [buckets] (at least
   [table_size n] long). *)
let hashtbl_order_into n hash ~buckets ~out =
  if n = 1 then out.(0) <- 0
  else if n > 1 then begin
    let mask = table_size n - 1 in
    Array.fill buckets 0 (mask + 1) 0;
    for i = 0 to n - 1 do
      let b = hash i land mask in
      buckets.(b) <- buckets.(b) + 1
    done;
    (* each bucket's end position *)
    let acc = ref 0 in
    for b = 0 to mask do
      acc := !acc + buckets.(b);
      buckets.(b) <- !acc
    done;
    (* oldest first into each bucket's last free position *)
    for i = 0 to n - 1 do
      let b = hash i land mask in
      let e = buckets.(b) - 1 in
      buckets.(b) <- e;
      out.(e) <- i
    done
  end

let hashtbl_order n hash =
  let out = Array.make n 0 in
  hashtbl_order_into n hash ~buckets:(Array.make (table_size n) 0) ~out;
  out

(* Fetch every missing diff for [pages], one response per writer (the
   communication-aggregation optimization uses a many-page [pages] list;
   the base run-time passes the single faulting page). Unless [mode] leaves
   the work to the fault handler, the units are then applied page by page
   in happens-before order.

   Writers respond in the order a writer-keyed [Hashtbl] that received
   them in order of first request would visit them — the order earlier
   versions had, which sets each peer's handler occupancy and so the
   virtual clock — and each serves its requests highest page first. Each
   page's units are consed onto one list as the responses come in, so a
   later writer's units lie in front. A writer's own units never tie in
   order and [apply_units] sorts stably, so units of equal order from
   different writers apply later writer first. Pages are applied in the
   order [hashtbl_order] gives for them in order of first response: the
   order of the page-keyed table earlier versions kept, so that traces
   stay comparable. *)
let fetch sys p pages ~mode ?only_via () =
  if pages <> [] then begin
    Prof.enter Prof.Protocol;
    let st = sys.states.(p) in
    let pstats = sys.cluster.Cluster.stats.(p) in
    let cfg = sys.cluster.Cluster.cfg in
    let now = not (is_async mode) in
    let page_of = Array.of_list (List.sort_uniq compare pages) in
    let npages = Array.length page_of in
    gather_needs sys p page_of ?only_via ();
    let fx = sys.fx in
    (* per page: its units so far, and the rank at which a response first
       answered it (-1 while none has) *)
    let units = Array.make npages [] in
    let rank = Array.make npages (-1) in
    let answered = ref 0 in
    let applied_bytes = ref 0 in
    (* the request's [after] is still [p]'s applied watermark of [q]
       (one request per page and writer, and nothing between the plan and
       here moves it), and [upto] exceeds it: the new watermark is [upto]
       raised to the highest seq the units cover *)
    let install q i ~after ~upto (r : Diff_store.fetch_result) =
      if rank.(i) < 0 then begin
        rank.(i) <- !answered;
        incr answered
      end;
      units.(i) <- List.rev_append r.Diff_store.units units.(i);
      let page = page_of.(i) in
      let high = if r.Diff_store.high > upto then r.Diff_store.high else upto in
      if sys.trace <> None then
        emit sys p
          (Dsm_trace.Event.Diff_fetch { writer = q; page; after; upto = high });
      Wmap.set (meta st page).applied q high
    in
    let respond q =
      let bytes = ref 0 and ndiffs = ref 0 and nreq = ref 0
      and served = ref [] in
      let k = ref fx.head.(q) in
      while !k >= 0 do
        let req = 4 * !k in
        let i = fx.reqs.(req)
        and after = fx.reqs.(req + 1)
        and upto = fx.reqs.(req + 2) in
        let page = page_of.(i) in
        let r =
          if now then begin
            let r =
              Diff_store.fetch_note sys.store ~writer:q ~page ~after ~upto ~by:p
            in
            install q i ~after ~upto r;
            r
          end
          else begin
            served := page :: !served;
            Diff_store.fetch sys.store ~writer:q ~page ~after ~upto
          end
        in
        bytes := !bytes + r.Diff_store.charge_bytes;
        ndiffs := !ndiffs + r.Diff_store.ndiffs;
        incr nreq;
        k := fx.reqs.(req + 3)
      done;
      if now then begin
        applied_bytes := !applied_bytes + !bytes;
        pstats.Stats.diffs_applied <- pstats.Stats.diffs_applied + !ndiffs;
        pstats.Stats.diff_bytes_applied <-
          pstats.Stats.diff_bytes_applied + !bytes
      end;
      {
        peer = q;
        pages = !served;
        nreq = !nreq;
        data = !bytes;
        hdr = 8 * !ndiffs;
        ndiffs = !ndiffs;
        mat = fx.mat.(q);
      }
    in
    hashtbl_order_into fx.nw
      (fun k -> fx.whash.(fx.writers.(k)))
      ~buckets:fx.buckets ~out:fx.order;
    for k = 0 to fx.nw - 1 do
      move sys p mode (respond fx.writers.(fx.order.(k)))
    done;
    if now then begin
      let by_rank = Array.make !answered 0 in
      Array.iteri (fun i k -> if k >= 0 then by_rank.(k) <- i) rank;
      Array.iter
        (fun k ->
          let i = by_rank.(k) in
          let page = page_of.(i) in
          let each =
            if sys.trace = None then None
            else
              Some
                (fun u ->
                  emit sys p
                    (Dsm_trace.Event.Diff_apply
                       {
                         writer = u.Diff_store.writer;
                         page;
                         order = u.Diff_store.order;
                         upto_seq = u.Diff_store.upto_seq;
                         bytes = Diff.size_bytes u.Diff_store.payload;
                       }))
          in
          apply_units ?each (Page_table.get st.pt page) units.(i))
        (hashtbl_order !answered (fun k ->
             Hashtbl.hash page_of.(by_rank.(k))));
      Cluster.charge sys.cluster p
        (cfg.Config.diff_apply_per_byte_us *. float_of_int !applied_bytes);
      (* an object-granularity page whose copy is fully current again sheds
         its stale-slot set (a restricted [only_via] fetch can leave
         residual staleness, so re-check the watermarks rather than clear
         blindly) *)
      if sys.has_objs then
        Array.iter
          (fun page ->
            if obj_size sys page > 0 then
              match Page_map.find st.meta page with
              | Some m when not (Pset.is_empty m.ob_stale) ->
                  if not (stale p m) then m.ob_stale <- Pset.empty
              | _ -> ())
          page_of;
      if sys.trace <> None then
        Array.iter
          (fun page ->
            emit sys p
              (Dsm_trace.Event.Fetch_done { page; full = only_via = None }))
          page_of
    end;
    Prof.exit Prof.Protocol
  end

(* {1 Consistency-state actions of the augmented interface}

   [apply_access_state] performs the protection/twin actions of Figure 3 of
   the paper for a validated section, assuming any required data movement has
   already happened. *)

(* Snapshot [page]'s copy as its twin, so the writes that follow can be
   recovered as a diff. *)
let make_twin sys p page pg =
  let pstats = sys.cluster.Cluster.stats.(p) in
  Page_table.make_twin pg;
  pstats.Stats.twins <- pstats.Stats.twins + 1;
  if sys.trace <> None then emit sys p (Dsm_trace.Event.Twin { page });
  Cluster.charge sys.cluster p
    (sys.cluster.Cluster.cfg.Config.twin_per_byte_us
    *. float_of_int sys.page_size)

let record_write_all sys p ranges =
  let st = sys.states.(p) in
  List.iter
    (fun page ->
      let m = meta st page in
      m.write_all <-
        Range.union m.write_all
          (Range.clip_to_page ~page_size:sys.page_size ~page ranges))
    (Range.pages ~page_size:sys.page_size ranges)

let apply_access_state sys p ~ranges ~access =
  Prof.enter Prof.Protocol;
  let st = sys.states.(p) in
  let pages = Range.pages ~page_size:sys.page_size ranges in
  let enable ~twin =
    let transitions = ref [] in
    List.iter
      (fun page ->
        let pg = Page_table.get st.pt page in
        if twin && pg.Page_table.twin = None then make_twin sys p page pg;
        if pg.Page_table.prot <> Page_table.Read_write then begin
          grant st page pg Page_table.Read_write;
          transitions := page :: !transitions
        end;
        mark_dirty st page)
      pages;
    if !transitions <> [] then protect_runs sys p !transitions
  in
  (match access with
  | Read ->
      let transitions = ref [] in
      List.iter
        (fun page ->
          let pg = Page_table.get st.pt page in
          if pg.Page_table.prot = Page_table.No_access then begin
            grant st page pg Page_table.Read_only;
            transitions := page :: !transitions
          end)
        pages;
      if !transitions <> [] then protect_runs sys p !transitions
  | Write | Read_write -> enable ~twin:true
  | Write_all | Read_write_all ->
      record_write_all sys p ranges;
      enable ~twin:false);
  Prof.exit Prof.Protocol

(* Split a validate's page list into (pages to fetch, pages skipped by
   object granularity). A page may be skipped when it is genuinely stale
   (some foreign interval known but unapplied), its stale-slot tracking is
   live ([ob_stale] non-empty — an empty set on a stale page means the
   tracking was lost and the page must be fetched), and every validated
   object is disjoint from the stale slots: then the bytes the caller is
   about to touch are already current, and the staleness is pure false
   sharing at page granularity. Skipping never advances watermarks — the
   page stays stale and a later validate of a stale object fetches as
   usual. Disabled under home replication (quorum reads must settle their
   source) — and structurally off for the invalidate/adaptive backends,
   whose validates never route through this filter. *)
let obj_skip sys p ~ranges pages =
  if not sys.has_objs || Dsm_ft.Ft.replicated sys.ft then (pages, [])
  else begin
    let st = sys.states.(p) in
    let keep = ref []
    and skipped = ref [] in
    List.iter
      (fun page ->
        let osz = obj_size sys page in
        if osz = 0 then keep := page :: !keep
        else
        let m = meta st page in
        let stale = stale p m in
        let slots =
          if stale && not (Pset.is_empty m.ob_stale) then
            obj_slots_of_ranges sys ~page ~osz ranges
          else Pset.empty
        in
        if
          stale
          && (not (Pset.is_empty m.ob_stale))
          && (not (Pset.is_empty slots))
          && Pset.disjoint slots m.ob_stale
          (* an outstanding asynchronous response must be consumed by
             the normal fault path; granting access now would bury it *)
          && not (Hashtbl.mem st.pending_async page)
        then begin
          let pstats = sys.cluster.Cluster.stats.(p) in
          pstats.Stats.obj_skips <- pstats.Stats.obj_skips + 1;
          if sys.trace <> None then
            emit sys p
              (Dsm_trace.Event.Obj_skip
                 { page; slots = Pset.to_list slots });
          skipped := page :: !skipped
        end
        else keep := page :: !keep)
      pages;
    (List.rev !keep, List.rev !skipped)
  end

(* An asynchronous fetch completes in the page-fault handler, which only
   runs for inaccessible pages. An earlier object-granularity skip can
   leave a page accessible while Wmap-stale, so an asynchronous fetch of
   it would never be consumed and its updates silently lost: split those
   pages out for an immediate synchronous fetch. Without object regions
   every stale page is inaccessible and the split is the identity. *)
let split_unfaultable sys p pages =
  if not sys.has_objs then (pages, [])
  else
    let st = sys.states.(p) in
    List.partition
      (fun page ->
        obj_size sys page = 0
        || (Page_table.entry st.pt page).Page_table.prot = Page_table.No_access)
      pages

(* The sub-ranges of [ranges] falling on [pages]. *)
let clip_to_pages sys ranges pages =
  List.fold_left
    (fun acc page ->
      Range.union acc (Range.clip_to_page ~page_size:sys.page_size ~page ranges))
    Range.empty pages

(* {1 The homeless backend}

   Barrier departure: detect the broadcast opportunity of Section 3.2.1 —
   every requester asked for the same ranges and a single processor holds
   all the new data for them. *)
let detect_bcast sys ~epoch ~departure_clock entries =
  if not sys.cluster.Cluster.cfg.Config.enable_bcast then None
  else
  match entries with
  | [] | [ _ ] -> None
  | (_, reqs0) :: _ -> (
      let ranges0 =
        match reqs0 with [ r ] -> Some r.wr_ranges | _ -> None
      in
      match ranges0 with
      | None -> None
      | Some ranges0 ->
          let same =
            List.for_all
              (fun (_, reqs) ->
                match reqs with
                | [ r ] -> r.wr_ranges = ranges0
                | _ -> false)
              entries
          in
          if not same || List.length entries < sys.nprocs - 1 then None
          else begin
            let pages = Range.pages ~page_size:sys.page_size ranges0 in
            let requesters = List.map fst entries in
            (* candidate senders: processors whose write notices — already
               received, or about to be distributed with this departure —
               some requester has not applied yet for the requested pages *)
            let pending_seq q page r =
              (* newest interval of [q] touching [page] within the window
                 the requester [r] is about to learn of *)
              let upto = Vc.get sys.barrier.departure_vc q in
              let s = Ilog.newest_touch sys.logs.(q) page ~upto in
              if s > Vc.get sys.states.(r).vc q then s else 0
            in
            let writers = ref [] in
            List.iter
              (fun (r, _) ->
                List.iter
                  (fun page ->
                    let m = meta sys.states.(r) page in
                    for q = 0 to sys.nprocs - 1 do
                      if
                        q <> r
                        && (Wmap.get m.applied q < Wmap.get m.known q
                           || Wmap.get m.applied q < pending_seq q page r)
                        && not (List.mem q !writers)
                      then writers := q :: !writers
                    done)
                  pages)
              entries;
            match !writers with
            | [ q ] when not (List.mem q requesters) ->
                let cfg = sys.cluster.Cluster.cfg in
                (* the minimum applied watermark among the requesters
                   determines how much history the broadcast must carry *)
                let bytes =
                  List.fold_left
                    (fun acc page ->
                      ignore (materialize sys ~writer:q ~page);
                      let after =
                        List.fold_left
                          (fun acc (r, _) ->
                            let m = meta sys.states.(r) page in
                            min acc (Wmap.get m.applied q))
                          max_int entries
                      in
                      let f =
                        Diff_store.fetch sys.store ~writer:q ~page ~after
                          ~upto:max_int
                      in
                      acc + f.Diff_store.charge_bytes)
                    0 pages
                in
                let per_hop =
                  cfg.Config.msg_overhead_us
                  +. (cfg.Config.per_byte_us *. float_of_int bytes)
                  +. cfg.Config.wire_latency_us +. cfg.Config.msg_overhead_us
                in
                Some
                  ( epoch,
                    {
                      bp_src = q;
                      bp_pages = pages;
                      bp_base = departure_clock;
                      bp_per_hop = per_hop;
                      bp_requesters = requesters;
                      bp_bytes = bytes;
                    } )
            | _ -> None
          end)

let no_departure _sys ~epoch:_ ~departure_clock:_ _entries = None

let backend =
  {
    b_name = "lrc";
    b_proto = Some P_lrc;
    b_release = release;
    b_departure = detect_bcast;
  }
