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
        ~vc:(Vc.copy sys.states.(p).vc)
        kind

(* The current interval's write set, as a sorted page list (dirty is a
   hash set; every consumer needs a deterministic order). *)
let dirty_pages st = Hashtbl.fold (fun page () acc -> page :: acc) st.dirty []
let in_dirty st page = Hashtbl.mem st.dirty page
let mark_dirty st page =
  if not (Hashtbl.mem st.dirty page) then Hashtbl.replace st.dirty page ()

let meta st page =
  Page_map.find_or_add st.meta page (fun () ->
      {
        applied = Wmap.create ();
        known = Wmap.create ();
        write_all = Range.empty;
        lazy_hi = 0;
        lazy_vcsum = 0;
        home_flushed = 0;
        ob_stale = Pset.empty;
      })

(* {1 Object granularity}

   Pages inside a {!Tmk.Alloc.objs} region hold packed fixed-size objects,
   and the protocol tracks staleness per object slot (page offset divided
   by the object size) on top of the per-page watermarks: releases record
   which slots each interval wrote ([sys.obj_extents]), applied notices
   grow the receiver's [ob_stale] slot set, and a validate whose objects
   are all disjoint from [ob_stale] may skip the fetch entirely — the
   false-sharing remedy of sub-page allocation. Every hook is guarded by
   [sys.has_objs], so the paper's kernels execute bit-identically. *)

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
      if sys.has_objs then
        List.iter
          (fun page ->
            match Hashtbl.find_opt sys.obj_regions page with
            | None -> ()
            | Some osz ->
                let m = meta st page in
                let pg = Page_table.get st.pt page in
                let slots =
                  if not (Range.is_empty m.write_all) then
                    obj_slots_of_ranges sys ~page ~osz m.write_all
                  else
                    match pg.Page_table.twin with
                    | Some twin ->
                        let acc = ref Pset.empty in
                        for s = 0 to (sys.page_size / osz) - 1 do
                          let off = s * osz in
                          let differs = ref false in
                          for i = off to off + osz - 1 do
                            if
                              Bytes.unsafe_get twin i
                              <> Bytes.unsafe_get pg.Page_table.data i
                            then differs := true
                          done;
                          if !differs then acc := Pset.add s !acc
                        done;
                        !acc
                    | None -> obj_all_slots sys osz
                in
                Hashtbl.replace sys.obj_extents (p, seq, page) slots)
          pages;
      Hashtbl.reset st.dirty;
      Ilog.add sys.logs.(p) ~seq pages;
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
              Diff.merge !segs
                (Diff.of_range pg.Page_table.data ~off ~len)
                ~page_size:sys.page_size);
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
   ordered-in-between interval and could be applied out of order. *)
let apply_notice sys p ~writer ~seq ~pages =
  if writer <> p then begin
    let st = sys.states.(p) in
    let invalidated = ref [] in
    List.iter
      (fun page ->
        let m = meta st page in
        if seq > Wmap.get m.known writer then Wmap.set m.known writer seq;
        if Wmap.get m.known writer > Wmap.get m.applied writer then begin
          (if sys.has_objs then
             match Hashtbl.find_opt sys.obj_regions page with
             | None -> ()
             | Some osz ->
                 (* grow the stale-slot set by the interval's recorded
                    extent; a missing extent (foreign pre-allocation
                    history) conservatively stales the whole page *)
                 let slots =
                   match Hashtbl.find_opt sys.obj_extents (writer, seq, page)
                   with
                   | Some s -> s
                   | None -> obj_all_slots sys osz
                 in
                 m.ob_stale <- Pset.union m.ob_stale slots);
          if m.lazy_hi > 0 then
            Cluster.charge sys.cluster p (materialize sys ~writer:p ~page);
          if Page_table.invalidate st.pt page then
            invalidated := page :: !invalidated
        end;
        if sys.trace <> None then
          emit sys p
            (Dsm_trace.Event.Notice_apply
               {
                 writer;
                 seq;
                 page;
                 invalidated =
                   (Page_table.entry st.pt page).Page_table.prot
                   = Page_table.No_access;
               }))
      pages;
    if !invalidated <> [] then protect_runs sys p !invalidated
  end

(* Apply, from the global interval logs, every notice of every processor [q]
   with [vc_me.(q) < seq <= upto.(q)]; advance the vector clock. Returns the
   number of notices applied (for message-size accounting). *)
let pull_notices sys p ~upto =
  Prof.enter Prof.Protocol;
  let st = sys.states.(p) in
  let count = ref 0 in
  for q = 0 to sys.nprocs - 1 do
    if q <> p && Vc.get upto q > Vc.get st.vc q then begin
      let lo = Vc.get st.vc q
      and hi = Vc.get upto q in
      Ilog.iter_desc sys.logs.(q) ~lo ~hi (fun seq pages ->
          count := !count + List.length pages;
          (* object-granularity pages: the per-slot extent travels with
             the notice, modeled as one extra notice-sized entry per page *)
          if sys.has_objs then
            List.iter
              (fun g -> if Hashtbl.mem sys.obj_regions g then incr count)
              pages;
          apply_notice sys p ~writer:q ~seq ~pages);
      Vc.set st.vc q hi
    end
  done;
  Prof.exit Prof.Protocol;
  !count

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

let move sys p mode r =
  let cfg = sys.cluster.Cluster.cfg in
  let resp_bytes = r.data + r.hdr in
  (* one data message the peer sends at [at], its sending cost stolen from
     the peer's cpu; returns the arrival at [p] *)
  let answer_at at bytes =
    let qstats = sys.cluster.Cluster.stats.(r.peer) in
    qstats.Stats.messages <- qstats.Stats.messages + 1;
    qstats.Stats.bytes <- qstats.Stats.bytes + bytes;
    Cluster.charge sys.cluster r.peer
      (cfg.Config.msg_overhead_us
      +. (cfg.Config.per_byte_us *. float_of_int bytes));
    at
    +. (cfg.Config.per_byte_us *. float_of_int bytes)
    +. cfg.Config.wire_latency_us +. cfg.Config.msg_overhead_us
  in
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
        Cluster.sync_clock sys.cluster p (answer_at at resp_bytes)
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
      let qstats = sys.cluster.Cluster.stats.(r.peer) in
      qstats.Stats.messages <- qstats.Stats.messages + 1;
      qstats.Stats.bytes <- qstats.Stats.bytes + resp_bytes;
      (* back-to-back requests serialize at the peer's handler *)
      let start =
        Cluster.occupy sys.cluster r.peer ~arrival:arrival_at_peer
          ~handler_time:service
      in
      let arrival = start +. service +. cfg.Config.wire_latency_us in
      List.iter (fun page -> await sys.states.(p) page arrival) r.pages
  | Async_at at ->
      (* the historical cost model: an asynchronous piggy-backed answer
         carries the payload only — no per-diff framing, and the
         materialization it triggered is not charged *)
      if r.data > 0 then begin
        let arrival = answer_at at r.data in
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
   [each] sees every unit first. *)
let apply_units ?(each = ignore) pg units =
  List.iter
    (fun u ->
      each u;
      Diff.apply u.Diff_store.payload pg.Page_table.data;
      match pg.Page_table.twin with
      | Some twin -> Diff.apply u.Diff_store.payload twin
      | None -> ())
    (List.sort
       (fun a b -> compare a.Diff_store.order b.Diff_store.order)
       units)

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

(* Compute which writers' diffs [p] is missing for [pages], materialize the
   pending lazy diffs (recording the cost per writer), and apply supersede
   pruning. Shared by the synchronous, piggy-backed and asynchronous fetch
   paths. [only_via r] restricts to diffs processor [r] holds locally (its
   own, or ones it has applied). *)
let gather_needs sys p pages ?only_via () =
  let st = sys.states.(p) in
  let by_writer : (int, (int * int * int) list) Hashtbl.t = Hashtbl.create 8 in
  let mat_costs : (int, float ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun page ->
      let m = meta st page in
      let needed = ref [] in
      (* ascending scan of the known watermarks, accumulated in reverse:
         [needed] ends up ascending, exactly like the dense loop it
         replaces (a writer with no known entry cannot be stale) *)
      Wmap.iter
        (fun q kv ->
          if q <> p && kv > Wmap.get m.applied q then begin
            let keep =
              match only_via with
              | None -> true
              | Some r ->
                  q = r
                  || Dsm_mem.Page_table.find sys.states.(r).pt page <> None
                     && Wmap.get (meta sys.states.(r) page).applied q >= kv
            in
            if keep then needed := q :: !needed
          end)
        m.known;
      needed := List.rev !needed;
      if !needed <> [] then begin
        (* materialize the pending lazy diffs; the cost is charged as
           request service time at each writer *)
        List.iter
          (fun q ->
            let c = materialize sys ~writer:q ~page in
            if c > 0.0 then begin
              let cell =
                match Hashtbl.find_opt mat_costs q with
                | Some r -> r
                | None ->
                    let r = ref 0.0 in
                    Hashtbl.replace mat_costs q r;
                    r
              in
              cell := !cell +. c
            end)
          !needed;
        (* supersede pruning: if the happens-latest candidate diff
           overwrites the whole page, every older diff of the page is dead
           data — fetch only from that writer (this is what kills the IS
           diff-accumulation under READ&WRITE_ALL) *)
        let chosen =
          if
            List.length !needed < 2
            || not sys.cluster.Cluster.cfg.Config.enable_supersede
          then !needed
          else begin
            let best = ref None in
            List.iter
              (fun q ->
                match Diff_store.latest_vcsum sys.store ~writer:q ~page with
                | Some v -> (
                    match !best with
                    | Some (_, bv) when bv >= v -> ()
                    | _ -> best := Some (q, v))
                | None -> ())
              !needed;
            match !best with
            | Some (qstar, _)
              when Diff_store.latest_full_page sys.store ~writer:qstar ~page
                   <> None ->
                List.iter
                  (fun q ->
                    if q <> qstar then begin
                      (* pruned history counts as applied without moving
                         data; the watermark advance is still an event *)
                      if sys.trace <> None then
                        emit sys p
                          (Dsm_trace.Event.Diff_fetch
                             {
                               writer = q;
                               page;
                               after = Wmap.get m.applied q;
                               upto = Wmap.get m.known q;
                             });
                      Wmap.set m.applied q (Wmap.get m.known q);
                      Diff_store.note_applied sys.store ~writer:q ~page ~by:p
                        ~seq:(Wmap.get m.applied q)
                    end)
                  !needed;
                [ qstar ]
            | _ -> !needed
          end
        in
        List.iter
          (fun q ->
            let prev = Option.value ~default:[] (Hashtbl.find_opt by_writer q) in
            Hashtbl.replace by_writer q
              ((page, Wmap.get m.applied q, Wmap.get m.known q) :: prev))
          chosen
      end)
    (List.sort_uniq compare pages);
  (by_writer, mat_costs)

(* Fetch every missing diff for [pages], one response per writer (the
   communication-aggregation optimization uses a many-page [pages] list;
   the base run-time passes the single faulting page). Unless [mode] leaves
   the work to the fault handler, the units are then applied page by page
   in happens-before order. *)
let fetch sys p pages ~mode ?only_via () =
  Prof.enter Prof.Protocol;
  let st = sys.states.(p) in
  let pstats = sys.cluster.Cluster.stats.(p) in
  let cfg = sys.cluster.Cluster.cfg in
  let now = not (is_async mode) in
  let by_writer, mat_costs = gather_needs sys p pages ?only_via () in
  let units_by_page : (int, Diff_store.unit_to_apply list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let applied_bytes = ref 0 in
  let respond (q, reqs) =
    let total_bytes = ref 0
    and total_ndiffs = ref 0 in
    List.iter
      (fun (page, after, upto) ->
        let r = Diff_store.fetch sys.store ~writer:q ~page ~after ~upto in
        total_bytes := !total_bytes + r.Diff_store.charge_bytes;
        total_ndiffs := !total_ndiffs + r.Diff_store.ndiffs;
        if now then begin
          let cell =
            match Hashtbl.find_opt units_by_page page with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.replace units_by_page page l;
                l
          in
          cell := r.Diff_store.units @ !cell;
          let m = meta st page in
          let high =
            List.fold_left
              (fun acc u -> max acc u.Diff_store.upto_seq)
              upto r.Diff_store.units
          in
          if sys.trace <> None then
            emit sys p
              (Dsm_trace.Event.Diff_fetch
                 { writer = q; page; after; upto = high });
          Wmap.set m.applied q (max (Wmap.get m.applied q) high);
          Diff_store.note_applied sys.store ~writer:q ~page ~by:p
            ~seq:(Wmap.get m.applied q)
        end)
      reqs;
    if now then begin
      applied_bytes := !applied_bytes + !total_bytes;
      pstats.Stats.diffs_applied <- pstats.Stats.diffs_applied + !total_ndiffs;
      pstats.Stats.diff_bytes_applied <-
        pstats.Stats.diff_bytes_applied + !total_bytes
    end;
    {
      peer = q;
      pages = List.map (fun (page, _, _) -> page) reqs;
      nreq = List.length reqs;
      data = !total_bytes;
      hdr = 8 * !total_ndiffs;
      ndiffs = !total_ndiffs;
      mat = (match Hashtbl.find_opt mat_costs q with Some c -> !c | None -> 0.0);
    }
  in
  (* writers in the table's iteration order *)
  transfer sys p mode
    (List.rev (Hashtbl.fold (fun q reqs acc -> (q, reqs) :: acc) by_writer []))
    ~respond ~install:ignore;
  if now then begin
    Hashtbl.iter
      (fun page units ->
        apply_units
          ~each:(fun u ->
            if sys.trace <> None then
              emit sys p
                (Dsm_trace.Event.Diff_apply
                   {
                     writer = u.Diff_store.writer;
                     page;
                     order = u.Diff_store.order;
                     upto_seq = u.Diff_store.upto_seq;
                     bytes = Diff.size_bytes u.Diff_store.payload;
                   }))
          (Page_table.get st.pt page) !units)
      units_by_page;
    Cluster.charge sys.cluster p
      (cfg.Config.diff_apply_per_byte_us *. float_of_int !applied_bytes);
    (* an object-granularity page whose copy is fully current again sheds
       its stale-slot set (a restricted [only_via] fetch can leave residual
       staleness, so re-check the watermarks rather than clear blindly) *)
    if sys.has_objs then
      List.iter
        (fun page ->
          if Hashtbl.mem sys.obj_regions page then
            match Page_map.find st.meta page with
            | Some m when not (Pset.is_empty m.ob_stale) ->
                if
                  not
                    (Wmap.exists
                       (fun q kv -> q <> p && kv > Wmap.get m.applied q)
                       m.known)
                then m.ob_stale <- Pset.empty
            | _ -> ())
        (List.sort_uniq compare pages);
    if sys.trace <> None then
      List.iter
        (fun page ->
          emit sys p
            (Dsm_trace.Event.Fetch_done { page; full = only_via = None }))
        (List.sort_uniq compare pages)
  end;
  Prof.exit Prof.Protocol

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
          pg.Page_table.prot <- Page_table.Read_write;
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
            pg.Page_table.prot <- Page_table.Read_only;
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
        match Hashtbl.find_opt sys.obj_regions page with
        | None -> keep := page :: !keep
        | Some osz ->
            let m = meta st page in
            let stale =
              Wmap.exists
                (fun q kv -> q <> p && kv > Wmap.get m.applied q)
                m.known
            in
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
        (not (Hashtbl.mem sys.obj_regions page))
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
              let lo = Vc.get sys.states.(r).vc q in
              Ilog.newest_containing sys.logs.(q) ~lo ~upto page
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
