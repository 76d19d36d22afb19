(* Directory-based single-writer invalidate protocol.

   A sequentially consistent protocol family deliberately unlike the LRC
   variants, proving the backend interface spans consistency models: in
   the fetch pipeline it is the policy whose pages move by synchronous
   directory transactions rather than planned transfers. Each page has
   a directory entry (conceptually on processor [page mod nprocs]) holding
   an M/S/I summary — an owner whose copy is always current, an exclusive
   bit, and the sharer set. A read miss fetches the full page from the
   owner (downgrading it to shared if it held the page exclusively); a
   write fault invalidates every other valid copy before the writer is
   granted exclusivity. There are no twins, diffs, write notices or
   vector-clock traffic: data-race-free programs observe the same memory
   contents as under LRC, one whole page at a time.

   Simulator soundness notes:

   - The page table auto-creates zero-filled readable frames on first
     touch. Before the first directory transaction for a page that is
     fine (every copy is zero, all are valid); at entry creation the
     protocol neutralizes the artifact by forcing every non-directory
     copy to [No_access] (a frameless record where the processor never
     touched the page), so no processor can keep silently reading a
     copy the directory does not track.
   - Fault service never yields the engine turn, so a transaction reads
     quiescent remote state, exactly like the LRC fetch paths.
   - [Validate] with a [WRITE_ALL] access still fetches the page when the
     local copy is invalid: the validated ranges may cover only part of
     the page, and exclusivity over a stale frame would make the
     unwritten bytes authoritative. *)

open Types
module Cluster = Dsm_sim.Cluster
module Config = Dsm_sim.Config
module Stats = Dsm_sim.Stats
module Net = Dsm_net.Net
module Page_table = Dsm_mem.Page_table

let dir_of sys page = page mod sys.nprocs

(* Directory entry, created at the first transaction for the page. The
   zero-frame neutralization costs nothing: it models the page starting
   unmapped everywhere except at the directory node, whose zero frame is
   the authoritative initial copy. *)
let entry sys page =
  match Hashtbl.find_opt sys.iv_dir page with
  | Some e -> e
  | None ->
      let d = dir_of sys page in
      for q = 0 to sys.nprocs - 1 do
        if q = d then ignore (Page_table.entry sys.states.(q).pt page)
        else ignore (Page_table.invalidate sys.states.(q).pt page)
      done;
      let e = { iv_owner = d; iv_excl = false; iv_sharers = [ d ] } in
      Hashtbl.replace sys.iv_dir page e;
      e

(* Install the authoritative copy held by [src] into [p]'s frame, paying
   one data roundtrip (plus a control roundtrip to a remote directory node
   when it is neither endpoint). *)
let fetch_from sys p page ~src =
  let cfg = sys.cluster.Cluster.cfg in
  let d = dir_of sys page in
  if d <> p && d <> src then
    Net.rpc sys.net ~src:p ~dst:d ~req_bytes:16 ~resp_bytes:16 ~service:0.0;
  Net.rpc sys.net ~src:p ~dst:src ~req_bytes:16
    ~resp_bytes:(sys.page_size + 16) ~service:cfg.Config.diff_service_us;
  let spg = Page_table.get sys.states.(src).pt page in
  let pg = Page_table.get sys.states.(p).pt page in
  Bytes.blit spg.Page_table.data 0 pg.Page_table.data 0 sys.page_size;
  Cluster.charge sys.cluster p
    (cfg.Config.diff_apply_per_byte_us *. float_of_int sys.page_size);
  let pstats = sys.cluster.Cluster.stats.(p) in
  pstats.Stats.diff_bytes_applied <-
    pstats.Stats.diff_bytes_applied + sys.page_size;
  (* advance the LRC watermarks so a later protocol switch (adaptive
     backend) or checker replay sees [applied = known]; a no-op under the
     pure invalidate backend, where no write notices ever flow *)
  Protocol.mark_current sys p page;
  if sys.trace <> None then
    Protocol.emit sys p (Dsm_trace.Event.Fetch_done { page; full = true })

(* Which processor serves the data: the exclusive owner when there is
   one, otherwise the directory node if its copy is valid (two-hop miss),
   otherwise the owner of record (three-hop miss). *)
let source_of sys e page =
  if e.iv_excl then e.iv_owner
  else
    let d = dir_of sys page in
    if List.mem d e.iv_sharers then d else e.iv_owner

(* {1 The two directory transactions} *)

(* Put [page] under a fresh directory entry whose only (shared) copy is
   [owner]'s, which must be current; every other copy is invalid. Used at
   quiescence: an adaptive switch, or a static plan seeded before the run. *)
let install sys page ~owner =
  Hashtbl.remove sys.homes page;
  Hashtbl.replace sys.iv_dir page
    { iv_owner = owner; iv_excl = false; iv_sharers = [ owner ] };
  for q = 0 to sys.nprocs - 1 do
    if q = owner then
      (Page_table.get sys.states.(q).pt page).Page_table.prot <-
        Page_table.Read_only
    else ignore (Page_table.invalidate sys.states.(q).pt page)
  done

(* An exclusive owner drops to shared (read-only) so [reader] can join
   the sharers. *)
let downgrade sys e page ~reader =
  if e.iv_excl then begin
    let o = e.iv_owner in
    let opg = Page_table.entry sys.states.(o).pt page in
    if opg.Page_table.prot = Page_table.Read_write then
      opg.Page_table.prot <- Page_table.Read_only;
    e.iv_excl <- false;
    let ostats = sys.cluster.Cluster.stats.(o) in
    ostats.Stats.downgrades <- ostats.Stats.downgrades + 1;
    if sys.trace <> None then
      Protocol.emit sys o (Dsm_trace.Event.Downgrade { page; reader })
  end

let readable sys p page =
  let pg = Page_table.get sys.states.(p).pt page in
  if pg.Page_table.prot = Page_table.No_access then
    pg.Page_table.prot <- Page_table.Read_only

(* Read miss: join the sharers, downgrading an exclusive owner. *)
let ensure_shared sys p page =
  let e = entry sys page in
  if not (List.mem p e.iv_sharers) then begin
    downgrade sys e page ~reader:p;
    fetch_from sys p page ~src:(source_of sys e page);
    e.iv_sharers <- List.sort_uniq compare (p :: e.iv_sharers)
  end;
  readable sys p page

(* Write fault/upgrade: invalidate every other valid copy, fetching the
   current contents first when the writer's own copy is invalid. *)
let ensure_excl sys p page =
  let e = entry sys page in
  if not (e.iv_excl && e.iv_owner = p) then begin
    let cfg = sys.cluster.Cluster.cfg in
    let d = dir_of sys page in
    if not (List.mem p e.iv_sharers) then
      fetch_from sys p page ~src:(source_of sys e page)
    else if d <> p then
      (* upgrade: control roundtrip to the directory only *)
      Net.rpc sys.net ~src:p ~dst:d ~req_bytes:16 ~resp_bytes:16 ~service:0.0;
    let victims = List.filter (fun q -> q <> p) e.iv_sharers in
    if victims <> [] then begin
      let acks =
        List.map
          (fun q ->
            if sys.trace <> None then
              Protocol.emit sys d (Dsm_trace.Event.Inval_send { page; dst = q });
            let arrival = Net.send sys.net ~src:d ~dst:q ~bytes:16 in
            ignore (Page_table.invalidate sys.states.(q).pt page);
            (* the victim's handler drops the copy and acks to the writer *)
            let service =
              cfg.Config.interrupt_us +. (2.0 *. cfg.Config.msg_overhead_us)
            in
            Cluster.charge sys.cluster q service;
            let qstats = sys.cluster.Cluster.stats.(q) in
            qstats.Stats.messages <- qstats.Stats.messages + 1;
            qstats.Stats.bytes <- qstats.Stats.bytes + 16;
            if sys.trace <> None then
              Protocol.emit sys q
                (Dsm_trace.Event.Inval_ack { page; writer = p });
            let start =
              Cluster.occupy sys.cluster q ~arrival ~handler_time:service
            in
            start +. service +. cfg.Config.wire_latency_us)
          victims
      in
      List.iter
        (fun ack ->
          Cluster.recv_charge sys.cluster ~dst:p ~arrival:ack ~interrupt:false)
        acks;
      let pstats = sys.cluster.Cluster.stats.(p) in
      pstats.Stats.invals <- pstats.Stats.invals + List.length victims
    end;
    e.iv_owner <- p;
    e.iv_excl <- true;
    e.iv_sharers <- [ p ]
  end;
  (Page_table.get sys.states.(p).pt page).Page_table.prot <-
    Page_table.Read_write

(* Serve an access to [pages] by the directory transactions. They always
   complete within the call: there is nothing for an asynchronous request
   to overlap with, which is always correct (async is a pure optimization
   hint), and nothing for a fault handler to finish. *)
let satisfy sys p access pages =
  match access with
  | Read -> List.iter (ensure_shared sys p) pages
  | Write | Read_write | Write_all | Read_write_all ->
      List.iter (ensure_excl sys p) pages

(* Push: the sender necessarily owns every page it pushes (it wrote the
   data), so the in-place payload is valid. A receiver whose copy the
   push covers completely joins the sharers — which is a downgrade of the
   exclusive sender, exactly as if the receiver had read-missed: the
   owner loses write access (its next write must re-invalidate the new
   sharers) and the receiver's copy becomes a tracked, current one. A
   partially covered copy stays invalid — the compiler-guaranteed reads
   of the pushed region then fault and fetch the whole page from the
   owner, which the push rendezvous has already ordered after the
   writes. *)
let push_received sys p ~page ~covered =
  if covered then begin
    let e = entry sys page in
    downgrade sys e page ~reader:p;
    e.iv_sharers <- List.sort_uniq compare (p :: e.iv_sharers);
    Protocol.mark_current sys p page;
    readable sys p page;
    if sys.trace <> None then
      Protocol.emit sys p (Dsm_trace.Event.Fetch_done { page; full = true })
  end

(* No intervals close (there are none), and there is no broadcast to
   plan. *)
let backend =
  {
    b_name = "inval";
    b_proto = Some P_inval;
    b_release = (fun _ _ -> None);
    b_departure = Protocol.no_departure;
  }
