(* Home-based lazy release consistency (HLRC).

   Every shared page has a {e home} processor whose copy is kept eagerly up
   to date: at each release the writer materializes its diffs for the
   released pages and flushes them into the homes' copies, and an access
   miss is serviced by fetching one full up-to-date page from the home
   instead of per-writer diff sets. Write notices, vector clocks and the
   synchronization skeletons are shared with the homeless protocol — only
   the data movement differs (cf. Zhou et al., "Performance Evaluation of
   Two Home-Based Lazy Release Consistency Protocols", OSDI '96).

   Soundness in this simulator: a flush happens inside the releaser's
   engine turn, strictly before the release's write notices can reach any
   acquirer (notices travel on barrier-departure and lock-grant messages).
   The home copy therefore always covers every interval any processor can
   hold a notice for, so [applied := known] after installing the home copy
   is exact. The trace checker enforces this as the home-fetch-current
   rule.

   In the fetch pipeline this is the home-copy policy: a transfer plans
   the stale pages by home (or, under replication, by quorum-read
   source), moves one full-page response per peer and installs the copies;
   {!flush} pushes a closed interval's diffs home. *)

open Types
module Cluster = Dsm_sim.Cluster
module Config = Dsm_sim.Config
module Stats = Dsm_sim.Stats
module Net = Dsm_net.Net
module Range = Dsm_rsd.Range
module Page_table = Dsm_mem.Page_table
module Diff = Dsm_mem.Diff
module Prof = Dsm_prof.Prof

module Ft = Dsm_ft.Ft

(* {1 Release: eager diff flush to the homes} *)

(* Materialize [p]'s pending diff for [page] (charged to [p]: the flush
   runs in its release) and fetch every unit not flushed yet; returns the
   units and the highest interval they cover. *)
let flush_units sys p ~seq page =
  let m = Protocol.meta sys.states.(p) page in
  let c = Protocol.materialize sys ~writer:p ~page in
  if c > 0.0 then Cluster.charge sys.cluster p c;
  let r =
    Diff_store.fetch sys.store ~writer:p ~page ~after:m.home_flushed ~upto:seq
  in
  (r, List.fold_left (fun acc u -> max acc u.Diff_store.upto_seq) seq r.Diff_store.units)

(* [home]'s copy of [page] now holds [p]'s intervals up to [high]. *)
let absorbed sys p ~home page high =
  let hm = Protocol.meta sys.states.(home) page in
  if high > Wmap.get hm.applied p then Wmap.set hm.applied p high;
  if Wmap.get hm.known p < Wmap.get hm.applied p then
    Wmap.set hm.known p (Wmap.get hm.applied p);
  Diff_store.note_applied sys.store ~writer:p ~page ~by:home
    ~seq:(Wmap.get hm.applied p)

(* Replicated variant of {!flush} ([replicas > 1]): the closed interval's
   diffs go to every live member of each page's replica group, and the
   release is only sound if at least a quorum of the group acknowledged —
   a crash of any minority of the group can then never lose an
   acknowledged write. Members filter stale units by their applied
   watermark, which makes a re-flush after a writer crash (the writer's
   [home_flushed] restarts at 0, so it re-fetches already-delivered units
   from the store) idempotent. *)
let flush_replicated sys p ~seq pages =
  Prof.enter Prof.Protocol;
  let st = sys.states.(p) in
  let cfg = sys.cluster.Cluster.cfg in
  let pstats = sys.cluster.Cluster.stats.(p) in
  let quorum = sys.ft.Ft.quorum in
  List.iter
    (fun page ->
      let m = Protocol.meta st page in
      let r, high = flush_units sys p ~seq page in
      let payload = r.Diff_store.charge_bytes in
      let live =
        Recover.live_members sys p (Recover.group_of sys ~toucher:p page)
      in
      List.iter
        (fun member ->
          if member = p then begin
            (* my copy is current by construction; only the watermark moves *)
            absorbed sys p ~home:p page high
          end
          else begin
            let hst = sys.states.(member) in
            let arrival =
              Net.send sys.net ~src:p ~dst:member ~bytes:(payload + 16)
            in
            let service =
              cfg.Config.interrupt_us +. cfg.Config.msg_overhead_us
              +. (cfg.Config.diff_apply_per_byte_us *. float_of_int payload)
            in
            Cluster.charge sys.cluster member service;
            ignore
              (Cluster.occupy sys.cluster member ~arrival
                 ~handler_time:service);
            let hm = Protocol.meta hst page in
            Protocol.apply_units (Page_table.get hst.pt page)
              (List.filter
                 (fun u -> u.Diff_store.upto_seq > Wmap.get hm.applied p)
                 r.Diff_store.units);
            absorbed sys p ~home:member page high;
            Ft.clear_lost sys.ft member page;
            pstats.Stats.home_flushes <- pstats.Stats.home_flushes + 1;
            pstats.Stats.home_flush_bytes <-
              pstats.Stats.home_flush_bytes + payload
          end)
        live;
      if List.length live < quorum then
        failwith
          (Printf.sprintf
             "hlrc-r: flush of page %d reached only %d/%d replicas (more \
              concurrent failures than the group tolerates)"
             page (List.length live) quorum);
      if high > m.home_flushed then m.home_flushed <- high;
      pstats.Stats.quorum_writes <- pstats.Stats.quorum_writes + 1;
      if sys.trace <> None then
        Protocol.emit sys p
          (Dsm_trace.Event.Quorum_write
             { page; seq = high; acks = live; needed = quorum }))
    pages;
  Prof.exit Prof.Protocol

(* Push a closed interval's diffs for [pages] into the home copies. One
   message per home aggregates all of the release's pages homed there.
   After a flush the releaser holds no lazy interval for remotely-homed
   pages: [lazy_hi] is 0 between releases, so foreign notices never force
   a materialization. *)
let flush_single sys p ~seq pages =
  Prof.enter Prof.Protocol;
  let st = sys.states.(p) in
  let cfg = sys.cluster.Cluster.cfg in
  let pstats = sys.cluster.Cluster.stats.(p) in
  let by_home = Array.make sys.nprocs [] in
      List.iter
        (fun page ->
          let home = Recover.home_of sys ~toucher:p page in
          if home = p then begin
            (* My copy is the home copy: trivially flushed. The diff is
               still materialized: that drops the twin and write-protects
               the page (the homeless protocol would do both lazily), and
               a store that keeps history needs a cell for every real
               writer of a page, or its single-writer coalescing would be
               unsound. A retiring store drops the entry at once, since
               no flush will ever read it. *)
            let c = Protocol.materialize sys ~writer:p ~page in
            if c > 0.0 then Cluster.charge sys.cluster p c;
            let m = Protocol.meta st page in
            if seq > m.home_flushed then m.home_flushed <- seq;
            Diff_store.retire sys.store ~writer:p ~page ~upto:m.home_flushed
          end
          else by_home.(home) <- page :: by_home.(home))
        pages;
      for home = 0 to sys.nprocs - 1 do
        match by_home.(home) with
        | [] -> ()
        | rev_pages ->
            let hpages = List.rev rev_pages in
            let hst = sys.states.(home) in
            let payload = ref 0 in
            let per_page =
              List.map
                (fun page ->
                  let m = Protocol.meta st page in
                  let r, high = flush_units sys p ~seq page in
                  payload := !payload + r.Diff_store.charge_bytes;
                  (page, m, r, high))
                hpages
            in
            let bytes = !payload + (16 * List.length hpages) in
            let arrival = Net.send sys.net ~src:p ~dst:home ~bytes in
            (* home-side handler: receive and overlay the diffs *)
            let service =
              cfg.Config.interrupt_us +. cfg.Config.msg_overhead_us
              +. (cfg.Config.diff_apply_per_byte_us *. float_of_int !payload)
            in
            Cluster.charge sys.cluster home service;
            ignore
              (Cluster.occupy sys.cluster home ~arrival ~handler_time:service);
            List.iter
              (fun (page, m, r, high) ->
                Protocol.apply_units (Page_table.get hst.pt page)
                  r.Diff_store.units;
                absorbed sys p ~home page high;
                if high > m.home_flushed then m.home_flushed <- high;
                Diff_store.retire sys.store ~writer:p ~page
                  ~upto:m.home_flushed;
                if sys.trace <> None then
                  Protocol.emit sys p
                    (Dsm_trace.Event.Home_flush
                       {
                         page;
                         home;
                         seq = high;
                         bytes = r.Diff_store.charge_bytes;
                       }))
              per_page;
            pstats.Stats.home_flushes <- pstats.Stats.home_flushes + 1;
            pstats.Stats.home_flush_bytes <-
              pstats.Stats.home_flush_bytes + !payload
  done;
  Prof.exit Prof.Protocol

(* Flush the diffs of interval [seq], just closed by {!Protocol.release},
   for the [pages] this protocol governs: to every replica under
   replication, to the single home otherwise. *)
let flush sys p ~seq pages =
  if Ft.replicated sys.ft then flush_replicated sys p ~seq pages
  else flush_single sys p ~seq pages

(* {1 Access misses: full-page fetch from the home} *)

(* The home's own copy needs no message: flushes landed in it eagerly, so
   it only has to advance its watermarks (this happens after a partial-push
   rollback or a foreign notice invalidated the home's page). *)
let revalidate_local sys p page =
  Protocol.mark_current sys p page;
  (Protocol.meta sys.states.(p) page).ob_stale <- Pset.empty;
  if sys.trace <> None then begin
    Protocol.emit sys p
      (Dsm_trace.Event.Home_fetch { page; home = p; bytes = 0 });
    Protocol.emit sys p (Dsm_trace.Event.Fetch_done { page; full = true })
  end

(* Install the home copy into [p]'s page, preserving the current (not yet
   released) local writes: they live only in this copy, and under a
   data-race-free program they touch bytes disjoint from any interval the
   fetch covers. With a twin the writes are recovered as a diff and
   re-applied on top (the twin itself becomes the fresh home copy, so the
   next materialization still captures exactly the local writes); a
   WRITE_ALL page carries no twin, so once it is dirty the validated
   ranges are saved and restored verbatim. A clean page holds no local
   writes — in particular a READ&WRITE_ALL page between the validate and
   its first access must take the home copy unmodified, or the reads
   would see the superseded content. *)
let install_home_copy sys p page ~home =
  let st = sys.states.(p) in
  let hpg = Page_table.get sys.states.(home).pt page in
  let pg = Page_table.get st.pt page in
  let m = Protocol.meta st page in
  let cur =
    match pg.Page_table.twin with
    | Some twin -> Some (Diff.create ~twin ~current:pg.Page_table.data)
    | None -> None
  in
  let saved = ref [] in
  if cur = None && Protocol.in_dirty st page
     && not (Range.is_empty m.write_all)
  then
    Range.iter m.write_all (fun ~lo ~hi ->
        let off = lo - (page * sys.page_size) in
        let buf = Bytes.create (hi - lo) in
        Bytes.blit pg.Page_table.data off buf 0 (hi - lo);
        saved := (off, buf) :: !saved);
  Bytes.blit hpg.Page_table.data 0 pg.Page_table.data 0 sys.page_size;
  (match pg.Page_table.twin with
  | Some twin -> Bytes.blit hpg.Page_table.data 0 twin 0 sys.page_size
  | None -> ());
  (match cur with Some d -> Diff.apply d pg.Page_table.data | None -> ());
  List.iter
    (fun (off, buf) ->
      Bytes.blit buf 0 pg.Page_table.data off (Bytes.length buf))
    !saved;
  (* every writer with any watermark: raise applied to known, then restate
     the applied seq to the diff store (a 0 seq is a no-op there) *)
  Protocol.mark_current ~restate:true sys p page;
  (* the installed copy is fully current: no slot is stale any more *)
  m.ob_stale <- Pset.empty

(* One serving peer's full-page response (16 bytes of framing per page). *)
let response sys peer pages =
  let n = List.length pages in
  {
    Protocol.peer;
    pages;
    nreq = n;
    data = (n * sys.page_size) + (16 * n);
    hdr = 0;
    ndiffs = 0;
    mat = 0.0;
  }

(* The non-empty groups of a per-peer plan, in peer order. *)
let by_peer plan =
  List.filter_map
    (fun peer ->
      match plan.(peer) with [] -> None | l -> Some (peer, List.rev l))
    (List.init (Array.length plan) Fun.id)

(* Replicated variant of the miss path ([replicas > 1]): each stale or
   lost page is read from the live group member whose applied watermarks
   dominate everything the reader knows (the quorum-read source — cf.
   ABD's read phase adapted to HLRC: watermark dominance replaces the
   highest-timestamp rule), and the read is then imposed on the other
   live members with small confirm messages so a subsequent reader after
   further failures still finds a current copy acknowledged. *)
let quorum_fetch_pages sys p pages ~mode =
  Prof.enter Prof.Protocol;
  let cfg = sys.cluster.Cluster.cfg in
  let pstats = sys.cluster.Cluster.stats.(p) in
  let st = sys.states.(p) in
  let quorum = sys.ft.Ft.quorum in
  let by_src = Array.make sys.nprocs [] in
  List.iter
    (fun page ->
      if
        Protocol.stale p (Protocol.meta st page) || Ft.is_lost sys.ft p page
      then begin
        let live =
          Recover.live_members sys p (Recover.group_of sys ~toucher:p page)
        in
        match Recover.pick_source sys p page ~live with
        | Some c -> by_src.(c) <- (page, live) :: by_src.(c)
        | None ->
            failwith
              (Printf.sprintf
                 "hlrc-r: no live replica of page %d holds a copy current \
                  enough for processor %d (more concurrent failures than \
                  the group tolerates)"
                 page p)
      end
      else if sys.trace <> None then
        (* already current — typically a cold fault on a page the restart
           repair resynchronized but left protected; the trivially
           complete fetch still closes the checker's fault window *)
        Protocol.emit sys p
          (Dsm_trace.Event.Fetch_done { page; full = true }))
    (List.sort_uniq compare pages);
  Protocol.transfer sys p mode (by_peer by_src)
    ~respond:(fun (src, entries) -> response sys src (List.map fst entries))
    ~install:(fun (src, entries) ->
        List.iter
          (fun (page, live) ->
            install_home_copy sys p page ~home:src;
            (* the source's copy can be ahead of the reader's notices
               (e.g. right after the reader restarted from an old
               checkpoint); adopt its watermarks so the install is not
               immediately re-judged stale *)
            let m = Protocol.meta st page in
            let cm = Protocol.meta sys.states.(src) page in
            Wmap.iter
              (fun q cv ->
                if cv > Wmap.get m.applied q then begin
                  Wmap.set m.applied q cv;
                  if Wmap.get m.known q < cv then Wmap.set m.known q cv;
                  Diff_store.note_applied sys.store ~writer:q ~page ~by:p
                    ~seq:cv
                end)
              cm.applied;
            Ft.clear_lost sys.ft p page;
            (* read-impose: confirm the observed watermark with the other
               live members (16-byte control roundtrips) *)
            List.iter
              (fun o ->
                if o <> src && o <> p then
                  Net.rpc sys.net ~src:p ~dst:o ~req_bytes:16 ~resp_bytes:16
                    ~service:cfg.Config.diff_service_us)
              live;
            pstats.Stats.home_fetches <- pstats.Stats.home_fetches + 1;
            pstats.Stats.home_fetch_bytes <-
              pstats.Stats.home_fetch_bytes + sys.page_size;
            pstats.Stats.diff_bytes_applied <-
              pstats.Stats.diff_bytes_applied + sys.page_size;
            pstats.Stats.quorum_reads <- pstats.Stats.quorum_reads + 1;
            if sys.trace <> None then begin
              Protocol.emit sys p
                (Dsm_trace.Event.Quorum_read
                   { page; from = src; acks = live; needed = quorum });
              Protocol.emit sys p
                (Dsm_trace.Event.Fetch_done { page; full = true })
            end)
          entries;
        Cluster.charge sys.cluster p
          (cfg.Config.diff_apply_per_byte_us
          *. float_of_int (List.length entries * sys.page_size)));
  Prof.exit Prof.Protocol

(* Fetch and install the home copies of every stale page, one aggregated
   request per home; paid for according to [mode] exactly like the
   homeless protocol's diff fetches. *)
let fetch_pages_single sys p pages ~mode =
  Prof.enter Prof.Protocol;
  let cfg = sys.cluster.Cluster.cfg in
  let pstats = sys.cluster.Cluster.stats.(p) in
  let st = sys.states.(p) in
  let by_home = Array.make sys.nprocs [] in
  List.iter
    (fun page ->
      if Protocol.stale p (Protocol.meta st page) then begin
        let home = Recover.home_of sys ~toucher:p page in
        if home = p then revalidate_local sys p page
        else by_home.(home) <- page :: by_home.(home)
      end)
    (List.sort_uniq compare pages);
  Protocol.transfer sys p mode (by_peer by_home)
    ~respond:(fun (home, hpages) -> response sys home hpages)
    ~install:(fun (home, hpages) ->
        List.iter
          (fun page ->
            install_home_copy sys p page ~home;
            pstats.Stats.home_fetches <- pstats.Stats.home_fetches + 1;
            pstats.Stats.home_fetch_bytes <-
              pstats.Stats.home_fetch_bytes + sys.page_size;
            pstats.Stats.diff_bytes_applied <-
              pstats.Stats.diff_bytes_applied + sys.page_size;
            if sys.trace <> None then
              Protocol.emit sys p
                (Dsm_trace.Event.Home_fetch
                   { page; home; bytes = sys.page_size }))
          hpages;
        Cluster.charge sys.cluster p
          (cfg.Config.diff_apply_per_byte_us
          *. float_of_int (List.length hpages * sys.page_size)));
  if sys.trace <> None && not (Protocol.is_async mode) then
    List.iter
      (fun page ->
        if Array.exists (fun l -> List.memq page l) by_home then
          Protocol.emit sys p (Dsm_trace.Event.Fetch_done { page; full = true }))
      (List.sort_uniq compare pages);
  Prof.exit Prof.Protocol

(* Under replication an asynchronous request degenerates to the
   synchronous quorum read: the source must be settled before the
   watermarks move. *)
let fetch sys p pages ~mode =
  if Ft.replicated sys.ft then
    quorum_fetch_pages sys p pages
      ~mode:(if mode = Protocol.Async then Protocol.Rpc else mode)
  else fetch_pages_single sys p pages ~mode

(* Cost-only peek for the barrier responder scan: does [p] home [page]?
   It never assigns a home. Under first-touch a page with no home yet
   cannot be [p]'s, and recording the requester as its toucher here would
   hand out homes a run without this scan (or with a different departure
   order) would assign differently — the page's real first toucher claims
   it when data actually moves. *)
let serves sys p ~requester page =
  match Hashtbl.find_opt sys.homes page with
  | Some h -> h = p
  | None -> (
      match sys.cluster.Cluster.cfg.Config.home_policy with
      | Config.Home_first_touch -> false
      | Config.Home_cyclic | Config.Home_block ->
          Recover.home_of sys ~toucher:requester page = p)
