(* Crash-stop recovery and replica-group plumbing (interprets {!Dsm_ft.Ft}).

   Three concerns live here, all inert unless the configuration enables
   them ([replicas > 1] or a crash schedule):

   - {e Replica groups}: under [hlrc-r] a page's home is the [k]-member
     group starting at the base home, wrapping over the processors. The
     flush/fetch quorum arithmetic lives in {!Dsm_ft.Schedule}; the
     member selection and liveness filtering live here so {!Hlrc} can
     stay a thin client.

   - {e Suspicion}: a peer inside a scheduled down window is unreachable;
     the first protocol operation of each observer that would have
     contacted it pays the full retransmit-timeout exhaustion budget
     (RTO x max_attempts, the same machinery {!Dsm_net.Net} uses for
     lossy links) and emits a [Suspect] event. Subsequent operations
     skip the dead member for free — the suspicion is cached per
     (observer, peer, window).

   - {e Checkpoint / crash / restart}: executed at barrier arrival,
     immediately after the interval was closed and its diffs flushed to
     the replica homes. Crashing there is the fail-stop point with the
     strongest guarantee the paper's release-consistency contract can
     give: nothing an application thread was acknowledged for (i.e.
     anything up to its last release) is lost, because the release
     itself completed its quorum writes. The wipe destroys all local
     pages, twins and protocol metadata; the restore rebuilds the
     metadata from the newest checkpoint (restoring [known] but not
     [applied] forces a refetch of every page the node had heard of)
     and repairs the pages the node itself homes from the best
     surviving replica. *)

open Types
module Cluster = Dsm_sim.Cluster
module Config = Dsm_sim.Config
module Stats = Dsm_sim.Stats
module Net = Dsm_net.Net
module Ft = Dsm_ft.Ft
module Page_table = Dsm_mem.Page_table
module Page_map = Dsm_mem.Page_map
module Plan = Dsm_net.Plan

(* {1 Home assignment}

   Moved here from {!Hlrc} (which re-exports it) so the replica-group map
   and the single-home map share one memoized policy resolution. *)

let home_of sys ~toucher page =
  match Hashtbl.find_opt sys.homes page with
  | Some h -> h
  | None ->
      let h =
        match sys.cluster.Cluster.cfg.Config.home_policy with
        | Config.Home_cyclic -> page mod sys.nprocs
        | Config.Home_first_touch -> toucher
        | Config.Home_block ->
            (* contiguous blocks of the allocated heap, one per processor *)
            let npages = max 1 (Dsm_mem.Addr_space.n_pages sys.space) in
            let per = (npages + sys.nprocs - 1) / sys.nprocs in
            min (page / per) (sys.nprocs - 1)
      in
      Hashtbl.replace sys.homes page h;
      h

(* Replica group of [page]: k consecutive processors starting at the base
   home. With [replicas = 1] this is the singleton base home. *)
let group_of sys ~toucher page =
  let base = home_of sys ~toucher page in
  let k = sys.ft.Ft.replicas in
  List.init k (fun i -> (base + i) mod sys.nprocs)

(* {1 Suspicion} *)

(* [observer] notices that [peer] is inside a down window. The first
   notice per window pays the RTO-exhaustion detection budget — the cost
   the reliable transport would charge for [max_attempts] unanswered
   retransmits — and emits the [Suspect] event. *)
let note_down sys ~observer ~peer ~window =
  if Ft.suspect_once sys.ft ~observer ~peer ~window then begin
    let cfg = sys.cluster.Cluster.cfg in
    Cluster.charge sys.cluster observer
      (cfg.Config.net_rto_us *. float_of_int Plan.default_max_attempts);
    let ostats = sys.cluster.Cluster.stats.(observer) in
    ostats.Stats.suspects <- ostats.Stats.suspects + 1;
    Protocol.emit sys observer
      (Dsm_trace.Event.Suspect
         { peer; attempts = Plan.default_max_attempts })
  end

(* Group members reachable by [p] right now; dead members are suspected
   (and paid for) on first contact. [p] itself always counts as live for
   its own operations — a processor executing code is by definition up,
   even inside its static window (the crash has not executed yet). *)
let live_members sys p members =
  let now = Cluster.time sys.cluster p in
  List.filter
    (fun m ->
      if m = p then true
      else
        match Ft.down_window sys.ft ~peer:m ~at:now with
        | None -> true
        | Some w ->
            note_down sys ~observer:p ~peer:m ~window:w;
            false)
    members

(* {1 Quorum-read source selection}

   Pick the member whose copy dominates what the reader knows: for every
   writer [q], the member's applied watermark must reach the reader's
   known watermark (the lowest-numbered live member wins ties). The
   reader itself is never a candidate — it only asks when its own copy
   is stale or lost. Replica copies can legitimately diverge right after
   a restart (the rejoined member refetches lazily), which is why the
   dominance test is per reader rather than a global "newest copy"
   order. *)
let pick_source sys p page ~live =
  let m = Protocol.meta sys.states.(p) page in
  let dominates c =
    let cm = Protocol.meta sys.states.(c) page in
    (not (Ft.is_lost sys.ft c page)) && Wmap.dominates cm.applied m.known
  in
  List.find_opt (fun c -> c <> p && dominates c) live

(* {1 Checkpoints} *)

let take_ckpt sys p ~epoch =
  let st = sys.states.(p) in
  let cfg = sys.cluster.Cluster.cfg in
  let known = Hashtbl.create (Page_map.length st.meta) in
  Page_map.iter
    (fun page (m : page_meta) ->
      (* Wmap snapshots are immutable pair lists: O(1), safely shared *)
      Hashtbl.replace known page (Wmap.to_pairs m.known))
    st.meta;
  let ck =
    Ft.push_ckpt sys.ft p ~epoch ~vc:(Vc.copy st.vc) ~known
  in
  (* stable-storage scan: one pass over the page metadata *)
  Cluster.charge sys.cluster p
    (cfg.Config.wsync_scan_per_page_us
    *. float_of_int (Page_map.length st.meta));
  let pstats = sys.cluster.Cluster.stats.(p) in
  pstats.Stats.ckpts <- pstats.Stats.ckpts + 1;
  Protocol.emit sys p
    (Dsm_trace.Event.Ckpt { id = ck.Ft.ck_id; ckpt_epoch = epoch })

(* {1 Crash and restart} *)

(* Destroy [p]'s volatile state: every page copy, twin, protection and
   all protocol metadata. Pages that existed are marked lost so fetches
   after the restart know the local copy is garbage even where the
   restored [known] watermarks alone would not force a refetch. *)
let wipe sys p =
  let st = sys.states.(p) in
  for page = 0 to Dsm_mem.Addr_space.n_pages sys.space - 1 do
    match Page_table.find st.pt page with
    | None -> ()
    | Some pg ->
        Ft.mark_lost sys.ft p page;
        Page_table.drop_frame pg
  done;
  Page_map.reset st.meta;
  Hashtbl.reset st.dirty;
  Hashtbl.reset st.pending_async;
  st.pending_wsync <- [];
  st.partial_push <- [];
  (* in-flight push messages addressed to the dead node die with it *)
  let doomed =
    Hashtbl.fold
      (fun ((_, dst) as key) _ acc -> if dst = p then key :: acc else acc)
      sys.pushbox []
  in
  List.iter (Hashtbl.remove sys.pushbox) doomed

(* Rebuild [p]'s metadata from its newest checkpoint. Foreign vector-clock
   components regress to the checkpoint (notices received since are gone
   and will be re-pulled at the next departure); [p]'s own component is
   kept — its interval log survives on the replica homes and the seq
   counter must stay monotonic. Restoring [known] without [applied]
   makes every checkpointed page stale, so ordinary fetches repair it. *)
let restore sys p =
  let st = sys.states.(p) in
  let ck = Ft.latest_ckpt sys.ft p in
  Array.iteri (fun q v -> if q <> p then Vc.set st.vc q v) ck.Ft.ck_vc;
  Hashtbl.iter
    (fun page known ->
      let m = Protocol.meta st page in
      List.iter
        (fun (q, v) -> if v > Wmap.get m.known q then Wmap.set m.known q v)
        known)
    ck.Ft.ck_known;
  ck

(* Repair the pages [p] co-homes: a rejoining replica must resynchronize
   its group state or later quorum reads could be served from its wiped
   copy. For each such page, read the best surviving copy (quorum read:
   the member whose applied watermarks dominate every other live
   member's) and install it verbatim. *)
let repair_homed sys p =
  let st = sys.states.(p) in
  let cfg = sys.cluster.Cluster.cfg in
  let pstats = sys.cluster.Cluster.stats.(p) in
  let mine =
    List.sort compare
      (Hashtbl.fold
         (fun page _ acc ->
           if List.mem p (group_of sys ~toucher:p page) then page :: acc
           else acc)
         sys.homes [])
  in
  let by_src = Hashtbl.create 8 in
  List.iter
    (fun page ->
      let live =
        List.filter (fun m -> m <> p)
          (live_members sys p (group_of sys ~toucher:p page))
      in
      (* best copy: applied watermarks dominate every other live member's *)
      let best =
        List.fold_left
          (fun acc c ->
            match acc with
            | None -> Some c
            | Some b ->
                let cm = Protocol.meta sys.states.(c) page in
                let bm = Protocol.meta sys.states.(b) page in
                if
                  Wmap.exists_gt cm.applied bm.applied
                  && Wmap.dominates cm.applied bm.applied
                then Some c
                else acc)
          None live
      in
      match best with
      | None -> ()  (* nobody else homes it; the lost mark forces a refetch *)
      | Some c ->
          let cm = Protocol.meta sys.states.(c) page in
          let cpg = Page_table.get sys.states.(c).pt page in
          let pg = Page_table.get st.pt page in
          Bytes.blit cpg.Page_table.data 0 pg.Page_table.data 0 sys.page_size;
          let m = Protocol.meta st page in
          List.iter
            (fun q ->
              let cv = Wmap.get cm.applied q in
              if cv > Wmap.get m.applied q then Wmap.set m.applied q cv;
              let av = Wmap.get m.applied q in
              if Wmap.get m.known q < av then Wmap.set m.known q av;
              Diff_store.note_applied sys.store ~writer:q ~page ~by:p ~seq:av)
            (Wmap.union_keys cm.applied m.applied);
          Ft.clear_lost sys.ft p page;
          pstats.Stats.quorum_reads <- pstats.Stats.quorum_reads + 1;
          Protocol.emit sys p
            (Dsm_trace.Event.Quorum_read
               { page; from = c; acks = live; needed = sys.ft.Ft.quorum });
          Hashtbl.replace by_src c
            (1 + Option.value ~default:0 (Hashtbl.find_opt by_src c)))
    mine;
  (* one aggregated state-transfer RPC per source replica *)
  List.iter
    (fun (c, n) ->
      Net.rpc sys.net ~src:p ~dst:c ~req_bytes:(16 * n)
        ~resp_bytes:((sys.page_size + 16) * n)
        ~service:cfg.Config.diff_service_us)
    (List.sort compare
       (Hashtbl.fold (fun c n acc -> (c, n) :: acc) by_src []))

(* Fail-stop [p] now, sit out the down window, rejoin from the last
   checkpoint. Executed inline in the crashed processor's own engine
   turn: the fiber keeps its control state, which models re-execution
   from the checkpoint — its cost is the down window itself. *)
let crash_restart sys p (e : Dsm_ft.Schedule.event) =
  let st = sys.states.(p) in
  let pstats = sys.cluster.Cluster.stats.(p) in
  Protocol.emit sys p (Dsm_trace.Event.Crash { epoch = st.barrier_epoch });
  pstats.Stats.crashes <- pstats.Stats.crashes + 1;
  wipe sys p;
  (* downtime: the node is gone until the window closes *)
  let now = Cluster.time sys.cluster p in
  Cluster.sync_clock sys.cluster p
    (Float.max now (e.Dsm_ft.Schedule.at_us +. e.Dsm_ft.Schedule.down_us));
  let ck = restore sys p in
  repair_homed sys p;
  pstats.Stats.restarts <- pstats.Stats.restarts + 1;
  Protocol.emit sys p
    (Dsm_trace.Event.Restart
       { epoch = st.barrier_epoch; ckpt = ck.Ft.ck_id })

(* {1 The barrier-arrival hook}

   Called by {!Sync_ops.barrier} right after the release closed the
   arriving processor's interval (and, under hlrc, flushed its diffs to
   the homes). Takes a checkpoint when one is due, then executes the
   processor's next scheduled crash. A single cheap test when the
   subsystem is idle. *)
let at_barrier_arrival (t : Types.t) =
  let sys = t.sys
  and p = t.p in
  let ft = sys.ft in
  if ft.Ft.ckpt_every > 0 || Ft.has_crashes ft then begin
    let st = t.st in
    if Ft.ckpt_due ft ~epoch:st.barrier_epoch then
      take_ckpt sys p ~epoch:st.barrier_epoch;
    match Ft.take_crash ft ~proc:p ~now:(Cluster.time sys.cluster p) with
    | Some e -> crash_restart sys p e
    | None -> ()
  end
