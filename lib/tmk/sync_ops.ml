(* Barrier and lock operations.

   Timing model (calibrated against Section 5 of the paper, see
   {!Dsm_sim.Config}): a barrier costs the arrival messages to the master,
   sequential processing of the n-1 arrivals, n-1 departure sends and the
   return latency; a free remote lock costs a request/grant roundtrip plus
   the manager's service time. Write notices travel on arrival/departure and
   grant messages; piggy-backed section requests (Validate_w_sync) are
   answered at departure/grant time through {!Fetch}. The skeletons are
   shared by every backend: intervals close through {!Fetch.release}, and
   only the last arriver's departure step matches on [sys.backend] — the
   homeless backend plans a broadcast, the adaptive one reclassifies
   pages. *)

open Types
module Cluster = Dsm_sim.Cluster
module Config = Dsm_sim.Config
module Stats = Dsm_sim.Stats
module Engine = Dsm_sim.Engine
module Net = Dsm_net.Net
module Range = Dsm_rsd.Range
module Prof = Dsm_prof.Prof

let wsync_req_bytes sys reqs =
  List.fold_left
    (fun acc r ->
      acc
      + (16 * List.length r.wr_ranges)
      + (8 * List.length (Range.pages ~page_size:sys.page_size r.wr_ranges)))
    0 reqs

(* Number of write notices in my log newer than what I last shipped. *)
let new_notice_count sys p =
  let st = sys.states.(p) in
  Ilog.count_since sys.logs.(p) st.notices_sent_seq

(* {1 Barrier} *)

let barrier t =
  Prof.enter Prof.Sync;
  let sys = t.sys
  and p = t.p in
  let st = state t in
  let b = sys.barrier in
  let cfg = sys.cluster.Cluster.cfg in
  let pstats = sys.cluster.Cluster.stats.(p) in
  pstats.Stats.barriers <- pstats.Stats.barriers + 1;
  Fetch.release sys p;
  (* fault-tolerance hook: checkpoints and scheduled crashes execute at
     barrier arrival, right after the interval closed (and, under hlrc,
     its diffs reached the replica homes) — the fail-stop point where an
     acknowledged write can no longer be lost. A single cheap test when
     the subsystem is idle. *)
  Recover.at_barrier_arrival t;
  let my_epoch = st.barrier_epoch in
  st.barrier_epoch <- my_epoch + 1;
  let my_reqs = st.pending_wsync in
  st.pending_wsync <- [];
  if my_reqs <> [] then begin
    let prev = Option.value ~default:[] (Hashtbl.find_opt b.wsync_tbl my_epoch) in
    Hashtbl.replace b.wsync_tbl my_epoch ((p, my_reqs) :: prev)
  end;
  let nbytes =
    (cfg.Config.notice_bytes * new_notice_count sys p)
    + wsync_req_bytes sys my_reqs
  in
  st.notices_sent_seq <- Vc.get st.vc p;
  if p <> 0 then ignore (Net.send sys.net ~src:p ~dst:0 ~bytes:nbytes);
  b.arrival_clock.(p) <- Cluster.time sys.cluster p;
  if sys.trace <> None then
    Protocol.emit sys p (Dsm_trace.Event.Barrier_arrive { epoch = my_epoch });
  b.arrived <- b.arrived + 1;
  if b.arrived = sys.nprocs then begin
    (* Last arriver performs the master's merge on its behalf. *)
    let alpha = cfg.Config.wire_latency_us
    and o = cfg.Config.msg_overhead_us
    and i = cfg.Config.interrupt_us in
    let latest = ref b.arrival_clock.(0) in
    for q = 1 to sys.nprocs - 1 do
      let at_master = b.arrival_clock.(q) +. alpha in
      if at_master > !latest then latest := at_master
    done;
    let n1 = float_of_int (sys.nprocs - 1) in
    let ready = !latest +. (n1 *. (i +. o)) in
    let dep_send = ready +. (n1 *. o) in
    b.departure_clock <- dep_send +. alpha +. o;
    (* Master's departure messages redistribute all new notices. *)
    let total_new =
      let sum = ref 0 in
      for q = 0 to sys.nprocs - 1 do
        sum := !sum + new_notice_count sys q
      done;
      !sum
    in
    b.resume_clock.(0) <- dep_send;
    for q = 1 to sys.nprocs - 1 do
      b.resume_clock.(q) <-
        Net.deliver sys.net ~src:0 ~dst:q
          ~bytes:(cfg.Config.notice_bytes * total_new)
          ~at:b.departure_clock
    done;
    (* The departure clock is the pointwise max of every processor's
       clock, and entry [q] of that max is [q]'s own: only [q]'s release
       raises [vc.(q)]; every other processor's copy of it is an earlier
       value of that entry, passed on by departures, lock grants and
       checkpoints; and [q]'s own entry never falls ([Recover.restore]
       keeps it). One read per processor, not a merge of every clock. *)
    let dvc = Vc.create sys.nprocs in
    for q = 0 to sys.nprocs - 1 do
      Vc.set dvc q (Vc.get sys.states.(q).vc q)
    done;
    b.departure_vc <- dvc;
    b.bcast_plan <-
      (match sys.backend with
      | Config.Lrc ->
          Protocol.detect_bcast sys ~epoch:my_epoch
            ~departure_clock:b.departure_clock
            (Option.value ~default:[] (Hashtbl.find_opt b.wsync_tbl my_epoch))
      | Config.Adaptive ->
          Adaptive.tick sys ~epoch:my_epoch;
          None
      | Config.Hlrc | Config.Inval -> None);
    b.epoch <- b.epoch + 1;
    b.arrived <- 0
  end;
  (* close the span across the suspension: scheduling and sibling fibers'
     work must not be charged to Sync *)
  Prof.exit Prof.Sync;
  Engine.block ~until:(fun () -> b.epoch > my_epoch);
  Prof.enter Prof.Sync;
  Cluster.sync_clock sys.cluster p b.resume_clock.(p);
  if sys.trace <> None then
    Protocol.emit sys p (Dsm_trace.Event.Barrier_depart { epoch = my_epoch });
  Protocol.pull_notices sys p ~upto:b.departure_vc;
  (* restore full consistency for pages only partially covered by pushes:
     roll the applied watermark back so the next access refetches the whole
     modification set *)
  let rolled = ref [] in
  List.iter
    (fun (page, writer, seq) ->
      let m = Protocol.meta st page in
      if Wmap.get m.applied writer = seq then begin
        if sys.trace <> None then
          Protocol.emit sys p
            (Dsm_trace.Event.Push_rollback { page; writer; seq });
        Wmap.set m.applied writer (seq - 1);
        (* the rollback regresses [applied], so the stale-slot tracking no
           longer under-approximates what a fetch would bring: stale the
           whole object page conservatively *)
        (let osz = Protocol.obj_size sys page in
         if osz > 0 then m.ob_stale <- Protocol.obj_all_slots sys osz);
        if Dsm_mem.Page_table.invalidate st.pt page then
          rolled := page :: !rolled
      end)
    st.partial_push;
  st.partial_push <- [];
  if !rolled <> [] then Protocol.protect_runs sys p !rolled;
  Fetch.answer_barrier sys p ~epoch:my_epoch
    ~departure_clock:b.departure_clock ~my_reqs;
  (* prune the piggy-backed-request table once every processor has finished
     this epoch's departure processing — without this the table (and the
     departure-count table) grow without bound over a run *)
  let ndone =
    1 + Option.value ~default:0 (Hashtbl.find_opt b.wsync_done my_epoch)
  in
  if ndone >= sys.nprocs then begin
    Hashtbl.remove b.wsync_done my_epoch;
    Hashtbl.remove b.wsync_tbl my_epoch
  end
  else Hashtbl.replace b.wsync_done my_epoch ndone;
  Prof.exit Prof.Sync

(* {1 Locks} *)

let get_lock sys lid =
  match Hashtbl.find_opt sys.locks lid with
  | Some lk -> lk
  | None ->
      let lk =
        {
          lid;
          held_by = None;
          last_releaser = lid mod sys.nprocs;
          release_clock = 0.0;
          release_vc = None;
          pending = [];
          granted = None;
          grant_clock = 0.0;
        }
      in
      Hashtbl.replace sys.locks lid lk;
      lk

let lock_acquire t lid =
  Prof.enter Prof.Sync;
  let sys = t.sys
  and p = t.p in
  let st = state t in
  let cfg = sys.cluster.Cluster.cfg in
  let pstats = sys.cluster.Cluster.stats.(p) in
  pstats.Stats.lock_acquires <- pstats.Stats.lock_acquires + 1;
  let lk = get_lock sys lid in
  let my_reqs = st.pending_wsync in
  st.pending_wsync <- [];
  let req_bytes = 16 + wsync_req_bytes sys my_reqs in
  let manager = lid mod sys.nprocs in
  let arrival = Net.send sys.net ~src:p ~dst:manager ~bytes:req_bytes in
  let arrival =
    if manager <> lk.last_releaser && manager <> p then begin
      (* the manager forwards the request to the current owner *)
      Cluster.charge sys.cluster manager
        (cfg.Config.interrupt_us +. (2.0 *. cfg.Config.msg_overhead_us));
      Net.deliver sys.net ~src:manager ~dst:lk.last_releaser ~bytes:req_bytes
        ~at:
          (arrival
          +. cfg.Config.interrupt_us
          +. (2.0 *. cfg.Config.msg_overhead_us)
          +. cfg.Config.wire_latency_us)
    end
    else arrival
  in
  if sys.trace <> None then
    Protocol.emit sys p (Dsm_trace.Event.Lock_request { lock = lid });
  if lk.held_by = None && lk.granted = None && lk.pending = [] then begin
    lk.granted <- Some p;
    lk.grant_clock <- Float.max arrival lk.release_clock
  end
  else
    (* newest first: O(1) instead of a quadratic append; {!lock_release}
       still grants by earliest arrival, oldest enqueued on ties *)
    lk.pending <- (p, arrival) :: lk.pending;
  Prof.exit Prof.Sync;
  Engine.block ~until:(fun () -> lk.granted = Some p);
  Prof.enter Prof.Sync;
  lk.granted <- None;
  lk.held_by <- Some p;
  let grantor = lk.last_releaser in
  let grant_ready =
    lk.grant_clock +. cfg.Config.interrupt_us +. cfg.Config.msg_overhead_us
    +. cfg.Config.lock_service_us
  in
  let ncount =
    if grantor <> p then begin
      (* grant handling steals cycles from the grantor *)
      Cluster.charge sys.cluster grantor
        (cfg.Config.interrupt_us +. cfg.Config.msg_overhead_us
       +. cfg.Config.lock_service_us);
      let upto = match lk.release_vc with Some v -> v | None -> st.vc in
      let ncount = Protocol.count_notices sys p ~upto in
      let grant_bytes = 16 + (cfg.Config.notice_bytes * ncount) in
      Cluster.sync_clock sys.cluster p
        (Net.deliver sys.net ~src:grantor ~dst:p ~bytes:grant_bytes
           ~at:
             (grant_ready +. cfg.Config.wire_latency_us
            +. cfg.Config.msg_overhead_us));
      Protocol.pull_notices sys p ~upto;
      Cluster.charge sys.cluster p
        (cfg.Config.per_byte_us *. float_of_int grant_bytes);
      ncount
    end
    else begin
      (* re-acquiring a lock this processor released last: local grant *)
      Cluster.sync_clock sys.cluster p grant_ready;
      0
    end
  in
  if sys.trace <> None then
    Protocol.emit sys p
      (Dsm_trace.Event.Lock_grant { lock = lid; grantor; notices = ncount });
  (* piggy-backed section requests are answered on the grant message *)
  List.iter (fun req -> Fetch.answer_grant sys p ~grantor ~grant_ready req) my_reqs;
  Prof.exit Prof.Sync

let lock_release t lid =
  Prof.enter Prof.Sync;
  let sys = t.sys
  and p = t.p in
  let lk = get_lock sys lid in
  if lk.held_by <> Some p then invalid_arg "lock_release: not the holder";
  Fetch.release sys p;
  lk.release_clock <- Cluster.time sys.cluster p;
  lk.release_vc <- Some (Vc.copy (state t).vc);
  lk.last_releaser <- p;
  lk.held_by <- None;
  (match lk.pending with
  | [] -> ()
  | pending ->
      (* [pending] is newest first; grant the earliest arrival, breaking
         ties towards the oldest enqueued request ([<=] walking
         newest-to-oldest leaves the oldest tied element as winner, exactly
         as the former append-order list with a strict [<] did) *)
      let (next, arr), rest =
        List.fold_left
          (fun ((bp, ba), rest) (q, a) ->
            if a <= ba then ((q, a), (bp, ba) :: rest)
            else ((bp, ba), (q, a) :: rest))
          (List.hd pending, [])
          (List.tl pending)
      in
      lk.pending <- List.rev rest;
      lk.granted <- Some next;
      lk.grant_clock <- Float.max arr lk.release_clock);
  Prof.exit Prof.Sync
