(* Adaptive per-page protocol switching.

   Every page is governed at any moment by one of the three per-page
   policies — homeless LRC ({!Protocol}), home-based LRC ({!Hlrc}) or
   single-writer invalidate ({!Invalidate}); the shared entry points of
   {!Fetch} look each page's policy up ({!Fetch.proto_of}) and record the
   sharing observations. This module reclassifies pages online from their
   observed sharing pattern. Pages start under LRC (the paper's default,
   correct for anything); every [adapt_window] barrier epochs the per-window
   read/write processor masks decide:

   - one processor both reads and writes the page (private, or migratory
     when the processor changes between windows) -> invalidate, owned by
     that processor: after one exclusivity grant it runs at memory speed
     with no per-epoch twin/diff/notice work;
   - exactly one writer, other readers (producer-consumer) -> home-based
     LRC with the home at the writer: flushes are local, consumers pay one
     full-page fetch;
   - several writers (fine-grained or false sharing) -> homeless LRC,
     whose diffs are exactly the concurrent-writer mechanism;
   - untouched or read-only windows change nothing.

   Switching happens inside the barrier's departure hook: it runs once,
   in the last arriver's engine turn, after every processor has closed its
   interval (all dirty sets are empty) and after the departure vector
   clock has been merged — global quiescence. The switch first brings the
   new copy-holder fully current through the ordinary traced protocol
   paths (so the checker follows for free), then rewrites protections,
   watermarks and per-protocol directory state; the reconfiguration itself
   is charged nothing, like the protection fixups of a real mprotect-based
   system would be amortized into the barrier it rides on. *)

open Types
module Cluster = Dsm_sim.Cluster
module Config = Dsm_sim.Config
module Stats = Dsm_sim.Stats
module Range = Dsm_rsd.Range
module Page_table = Dsm_mem.Page_table

(* {1 Release}

   One shared interval close (write notices for every LRC/HLRC-mode page
   dirtied — invalidate-mode pages never enter the dirty set), then an
   eager home flush for just the pages currently under HLRC. *)

let release sys p =
  match Protocol.release sys p with
  | None -> None
  | Some (seq, pages) as entry ->
      let hpages = List.filter (fun g -> Fetch.proto_of sys g = P_hlrc) pages in
      if hpages <> [] then Hlrc.flush_pages sys p ~seq hpages;
      entry

(* {1 Classification and switching} *)

(* A page may only change protocol when no processor holds transitional
   state for it: an outstanding asynchronous fetch, a partially pushed
   copy awaiting its barrier rollback, an open write interval, or a live
   WRITE_ALL window. *)
let switchable sys page =
  let ok = ref true in
  Array.iter
    (fun st ->
      if Hashtbl.mem st.pending_async page then ok := false;
      if List.exists (fun (g, _, _) -> g = page) st.partial_push then
        ok := false;
      if Hashtbl.mem st.dirty page then ok := false;
      (match Dsm_mem.Page_map.find st.meta page with
      | Some m -> if not (Range.is_empty m.write_all) then ok := false
      | None -> ());
      let pg = Page_table.entry st.pt page in
      if pg.Page_table.prot = Page_table.Read_write then ok := false)
    sys.states;
  !ok

let switch sys page a ~to_ ~owner:o ~epoch =
  (* 1. Bring the owner current through the ordinary traced protocol
     paths. The owner must first learn this epoch's write notices — its
     own departure pull has not run yet (we are inside the last arriver's
     turn) — and any lazily deferred diff for the page must be
     materialized so no twin survives the switch. *)
  ignore (Protocol.pull_notices sys o ~upto:sys.barrier.departure_vc);
  for w = 0 to sys.nprocs - 1 do
    let pg = Page_table.entry sys.states.(w).pt page in
    if pg.Page_table.twin <> None then begin
      let c = Protocol.materialize sys ~writer:w ~page in
      if c > 0.0 then Cluster.charge sys.cluster w c
    end
  done;
  let src =
    match a.ap_proto with
    | P_inval -> (
        (* the invalidate owner's copy is current by protocol invariant *)
        match Hashtbl.find_opt sys.iv_dir page with
        | Some e -> e.iv_owner
        | None -> o)
    | (P_lrc | P_hlrc) as proto ->
        Fetch.fetch sys o proto [ page ] ~mode:Protocol.Prepaid ();
        o
  in
  Protocol.mark_current ~restate:true sys src page;
  (* 2. The switch point: resets the checker's per-protocol tracking. *)
  let pstats = sys.cluster.Cluster.stats.(src) in
  pstats.Stats.proto_switches <- pstats.Stats.proto_switches + 1;
  if sys.trace <> None then
    Protocol.emit sys src
      (Dsm_trace.Event.Proto_switch
         { page; proto = page_proto_name to_; owner = o; epoch });
  (* 3. Install the new protocol's state. *)
  (match to_ with
  | P_inval -> Invalidate.install sys page ~owner:src
  | P_lrc | P_hlrc ->
      (* distribute the current copy to every processor — exact at
         quiescence: it includes every closed interval — so the new
         protocol starts with no history to fetch (old diffs may already
         have been pruned or superseded by invalidate-era writes) *)
      Hashtbl.remove sys.iv_dir page;
      for q = 0 to sys.nprocs - 1 do
        if q <> src then begin
          let spg = Page_table.get sys.states.(src).pt page in
          let qpg = Page_table.get sys.states.(q).pt page in
          Bytes.blit spg.Page_table.data 0 qpg.Page_table.data 0 sys.page_size;
          (match qpg.Page_table.twin with
          | Some twin ->
              Bytes.blit spg.Page_table.data 0 twin 0 sys.page_size
          | None -> ());
          Protocol.mark_current ~restate:true sys q page;
          if sys.trace <> None then
            Protocol.emit sys q
              (Dsm_trace.Event.Fetch_done { page; full = true })
        end;
        Invalidate.readable sys q page
      done;
      (match to_ with
      | P_hlrc ->
          Hashtbl.replace sys.homes page o;
          (* every released interval is reflected in the distributed copy:
             no writer must ever re-flush pre-switch history *)
          for w = 0 to sys.nprocs - 1 do
            let m = Protocol.meta sys.states.(w) page in
            let own = Vc.get sys.states.(w).vc w in
            if own > m.home_flushed then m.home_flushed <- own
          done
      | P_lrc | P_inval -> Hashtbl.remove sys.homes page));
  a.ap_proto <- to_

let reclassify sys ~epoch =
  let pages =
    Hashtbl.fold (fun g _ acc -> g :: acc) sys.adapt [] |> List.sort compare
  in
  List.iter
    (fun page ->
      let a = Hashtbl.find sys.adapt page in
      let readers = a.ap_readers
      and writers = a.ap_writers in
      let users = Pset.union readers writers in
      let nw = Pset.cardinal writers in
      let decision =
        if nw = 0 then None (* untouched / read-only window *)
        else if nw = 1 && Pset.equal users writers then
          Some (P_inval, Pset.min_elt writers)
        else if nw = 1 then Some (P_hlrc, Pset.min_elt writers)
        else Some (P_lrc, if a.ap_last_writer >= 0 then a.ap_last_writer else 0)
      in
      if nw = 1 then begin
        let w = Pset.min_elt writers in
        if a.ap_last_writer >= 0 && a.ap_last_writer <> w then
          a.ap_migrations <- a.ap_migrations + 1;
        a.ap_last_writer <- w
      end;
      a.ap_readers <- Pset.empty;
      a.ap_writers <- Pset.empty;
      match decision with
      | Some (np, o) when np <> a.ap_proto && switchable sys page ->
          switch sys page a ~to_:np ~owner:o ~epoch
      | _ -> ())
    pages

(* Runs once per barrier, in the last arriver's turn, at quiescence. *)
let plan_bcast sys ~epoch ~departure_clock:_ _entries =
  sys.adapt_tick <- sys.adapt_tick + 1;
  let w = max 1 sys.cluster.Cluster.cfg.Config.adapt_window in
  if sys.adapt_tick >= w then begin
    sys.adapt_tick <- 0;
    reclassify sys ~epoch
  end;
  None

let backend =
  {
    b_name = "adaptive";
    b_proto = None;
    b_release = release;
    b_departure = plan_bcast;
  }
