(* The entry points every page transfer goes through, written once over
   the four coherence backends.

   A backend is a per-page policy ({!Types.page_proto}) plus its release
   hook ({!Types.backend_ops}): the homeless protocol fetches per-writer
   diffs ({!Protocol.fetch}), the home-based one fetches the home copy
   ({!Hlrc.fetch}), and the invalidate protocol runs its synchronous
   directory transactions ({!Invalidate.satisfy}). The fixed backends run
   one policy for every page; the adaptive backend looks each page's
   policy up. Both data-moving policies share the plan -> move -> install
   pipeline of {!Protocol.transfer}. On top of the policies this module
   holds the page-fault handler (which consumes pending asynchronous
   responses), the answers to section requests piggy-backed on barrier
   departures and lock grants, and the adaptive backend's sharing
   observations; {!Validate.validate} is the fourth entry point. *)

open Types
module Cluster = Dsm_sim.Cluster
module Config = Dsm_sim.Config
module Stats = Dsm_sim.Stats
module Range = Dsm_rsd.Range
module Page_table = Dsm_mem.Page_table
module Prof = Dsm_prof.Prof
module Ft = Dsm_ft.Ft

(* {1 Per-page policy selection} *)

let proto_of sys page =
  match sys.bops.b_proto with
  | Some proto -> proto
  | None -> (
      match Hashtbl.find_opt sys.adapt page with
      | Some a -> a.ap_proto
      | None -> P_lrc)

(* Adaptive backend only: [p] accessed [page] in the current
   classification window. *)
let observe sys p access page =
  if sys.bops.b_proto = None then begin
    let a =
      match Hashtbl.find_opt sys.adapt page with
      | Some a -> a
      | None ->
          let a =
            {
              ap_proto = P_lrc;
              ap_readers = Pset.empty;
              ap_writers = Pset.empty;
              ap_last_writer = -1;
              ap_migrations = 0;
            }
          in
          Hashtbl.replace sys.adapt page a;
          a
    in
    match access with
    | Read -> a.ap_readers <- Pset.add p a.ap_readers
    | Write | Read_write | Write_all | Read_write_all ->
        a.ap_writers <- Pset.add p a.ap_writers
  end

let page_cover sys pages =
  List.fold_left
    (fun acc g ->
      Range.union acc
        (Range.of_interval (g * sys.page_size) ((g + 1) * sys.page_size)))
    Range.empty pages

(* [pages] split by the protocol governing them, each group with the part
   of [ranges] on its pages: one group under a fixed backend; the
   invalidate, homeless and home-based pages, in that order, under the
   adaptive one. *)
let groups sys pages ranges =
  match (sys.bops.b_proto, pages) with
  | _, [] -> []
  | Some proto, _ -> [ (proto, pages, ranges) ]
  | None, _ ->
      List.filter_map
        (fun proto ->
          match List.filter (fun g -> proto_of sys g = proto) pages with
          | [] -> None
          | pgs -> Some (proto, pgs, Range.inter ranges (page_cover sys pgs)))
        [ P_inval; P_lrc; P_hlrc ]

(* Bring [pages] current through the data-moving policy [proto]. *)
let fetch sys p proto pages ~mode ?only_via () =
  match proto with
  | P_lrc -> Protocol.fetch sys p pages ~mode ?only_via ()
  | P_hlrc -> Hlrc.fetch sys p pages ~mode
  | P_inval -> invalid_arg "Fetch.fetch: directory pages move by transaction"

(* {1 The page-fault handler}

   Entered where a hardware MMU would deliver SIGSEGV: a read of an
   invalid page, or a write of a page that is not write-enabled. A page
   with a pending asynchronous response consumes it (the data was paid
   for when it was requested); otherwise the policy fetches on demand. A
   write then creates the twin (unless the page is validated WRITE_ALL)
   and adds the page to the interval's write set. *)
let fault sys p page ~write =
  observe sys p (if write then Write else Read) page;
  Prof.enter Prof.Protocol;
  let st = sys.states.(p) in
  let pstats = sys.cluster.Cluster.stats.(p) in
  pstats.Stats.segv <- pstats.Stats.segv + 1;
  Cluster.mm_op sys.cluster p ~npages:1;
  let pg = Page_table.get st.pt page in
  let invalid = (not write) || pg.Page_table.prot = Page_table.No_access in
  if sys.trace <> None then
    Protocol.emit sys p
      (Dsm_trace.Event.Page_fault { page; write; fetch = invalid });
  (match proto_of sys page with
  | P_inval -> Invalidate.satisfy sys p (if write then Write else Read) [ page ]
  | proto ->
      (if invalid then
         match Hashtbl.find_opt st.pending_async page with
         | Some arrival ->
             Hashtbl.remove st.pending_async page;
             Cluster.sync_clock sys.cluster p arrival;
             fetch sys p proto [ page ] ~mode:Protocol.Prepaid ()
         | None -> fetch sys p proto [ page ] ~mode:Protocol.Rpc ());
      if write then begin
        let m = Protocol.meta st page in
        if Range.is_empty m.write_all && pg.Page_table.twin = None then
          Protocol.make_twin sys p page pg;
        Protocol.mark_dirty st page;
        pg.Page_table.prot <- Page_table.Read_write
      end
      else
        pg.Page_table.prot <-
          (if Protocol.in_dirty st page then Page_table.Read_write
           else Page_table.Read_only));
  Prof.exit Prof.Protocol

(* {1 Answers to piggy-backed section requests} *)

let req_pages sys reqs =
  List.concat_map
    (fun r -> Range.pages ~page_size:sys.page_size r.wr_ranges)
    reqs
  |> List.sort_uniq compare

(* Answer one section request piggy-backed on a synchronization
   operation. The responses travel at [at]; [bcast] is instead the arrival
   of a broadcast carrying the data; [via] restricts the homeless answer to
   the diffs the lock grantor holds (none when the requester is the
   grantor).

   An asynchronous request leaves its responses to the fault handler —
   except for pages an earlier object skip left accessible: no fault would
   ever consume their responses, so they are answered synchronously, as
   {!Validate.validate} does. Only the fixed homeless and home-based
   backends honour [async] (the home-based one not under replication,
   where a quorum read must settle its source first); the adaptive backend
   answers every request synchronously and applies the access state once
   over all its data-moving pages. *)
let answer sys p ~at ?bcast ?via ~async req =
  let st = sys.states.(p) in
  let ranges = req.wr_ranges
  and access = req.wr_access in
  let pages = Range.pages ~page_size:sys.page_size ranges in
  List.iter (observe sys p access) pages;
  let fetch_now proto pgs =
    match (bcast, via) with
    | Some arrival, _ ->
        Cluster.sync_clock sys.cluster p arrival;
        fetch sys p proto pgs ~mode:Protocol.Prepaid ()
    | None, Some g when g = p -> ()
    | None, _ ->
        fetch sys p proto pgs ~mode:(Protocol.Piggyback at) ?only_via:via ()
  in
  match groups sys pages ranges with
  | [ (((P_lrc | P_hlrc) as proto), _, _) ]
    when async && sys.bops.b_proto <> None
         && not (proto = P_hlrc && Ft.replicated sys.ft) ->
      let faultable, unfaultable = Protocol.split_unfaultable sys p pages in
      (match bcast with
      | Some arrival ->
          List.iter (fun page -> Protocol.await st page arrival) faultable
      | None ->
          (* the home-based policy skips pages whose response is already in
             flight; the homeless one re-requests them (the later arrival
             wins) *)
          let faultable =
            if proto = P_hlrc then
              List.filter
                (fun g -> not (Hashtbl.mem st.pending_async g))
                faultable
            else faultable
          in
          fetch sys p proto faultable ~mode:(Protocol.Async_at at) ());
      if unfaultable <> [] then fetch_now proto unfaultable;
      (match access with
      | Write_all | Read_write_all -> Protocol.record_write_all sys p ranges
      | Read | Write | Read_write -> ());
      if unfaultable <> [] then
        Protocol.apply_access_state sys p
          ~ranges:(Protocol.clip_to_pages sys ranges unfaultable)
          ~access
  | groups -> (
      List.iter
        (fun (proto, pgs, _) ->
          match proto with
          | P_inval -> Invalidate.satisfy sys p access pgs
          | P_lrc | P_hlrc -> fetch_now proto pgs)
        groups;
      match List.filter (fun (proto, _, _) -> proto <> P_inval) groups with
      | [] -> ()
      | [ (_, _, sub) ] -> Protocol.apply_access_state sys p ~ranges:sub ~access
      | paged ->
          Protocol.apply_access_state sys p ~access
            ~ranges:
              (Range.inter ranges
                 (page_cover sys
                    (List.concat_map (fun (_, pgs, _) -> pgs) paged))))

(* Requester/responder processing of the piggy-backed section requests,
   executed by each processor right after barrier departure. *)
let answer_barrier sys p ~epoch ~departure_clock ~my_reqs =
  let b = sys.barrier in
  let cfg = sys.cluster.Cluster.cfg in
  let entries =
    Option.value ~default:[] (Hashtbl.find_opt b.wsync_tbl epoch)
  in
  (* Responder side: every processor matches every other requester's
     sections against the pages it serves — the per-page overhead that
     makes sync+data merging unprofitable for large page lists (Section
     3.3). A homeless responder may hold diffs for any page, a home serves
     its homed pages; the directory protocol and the adaptive backend
     answer through their own transactions. *)
  (match sys.bops.b_proto with
  | Some ((P_lrc | P_hlrc) as proto) ->
      List.iter
        (fun (r, reqs) ->
          if r <> p then begin
            let n =
              List.length
                (List.filter
                   (fun page ->
                     proto = P_lrc || Hlrc.serves sys p ~requester:r page)
                   (req_pages sys reqs))
            in
            if n > 0 then
              Cluster.charge sys.cluster p
                (cfg.Config.wsync_scan_per_page_us *. float_of_int n)
          end)
        entries
  | Some P_inval | None -> ());
  (* Broadcast source side. *)
  (match b.bcast_plan with
  | Some (e, plan) when e = epoch && plan.bp_src = p ->
      let bytes = plan.bp_bytes in
      let pstats = sys.cluster.Cluster.stats.(p) in
      pstats.Stats.messages <- pstats.Stats.messages + (sys.nprocs - 1);
      pstats.Stats.bytes <- pstats.Stats.bytes + (bytes * (sys.nprocs - 1));
      pstats.Stats.broadcasts <- pstats.Stats.broadcasts + 1;
      let hops =
        if cfg.Config.bcast_log_tree then
          int_of_float (ceil (log (float_of_int sys.nprocs) /. log 2.0))
        else sys.nprocs - 1
      in
      Cluster.charge sys.cluster p
        (float_of_int hops
        *. (cfg.Config.msg_overhead_us
           +. (cfg.Config.per_byte_us *. float_of_int bytes)));
      if sys.trace <> None then
        Protocol.emit sys p
          (Dsm_trace.Event.Broadcast
             { bytes; requesters = plan.bp_requesters })
  | Some _ | None -> ());
  (* Requester side: a broadcast reaches each requester at its depth in
     the binomial tree. *)
  List.iter
    (fun req ->
      let bcast =
        match b.bcast_plan with
        | Some (e, plan)
          when e = epoch
               && List.mem p plan.bp_requesters
               && List.for_all
                    (fun pg -> List.mem pg plan.bp_pages)
                    (Range.pages ~page_size:sys.page_size req.wr_ranges) ->
            let pos =
              Option.value ~default:0
                (List.find_index (( = ) p) plan.bp_requesters)
            in
            let depth = ceil (log (float_of_int (pos + 2)) /. log 2.0) in
            Some (plan.bp_base +. (depth *. plan.bp_per_hop))
        | Some _ | None -> None
      in
      answer sys p ~at:departure_clock ?bcast ~async:req.wr_async req)
    my_reqs

(* On a lock grant, piggy-backed requests are answered synchronously on
   the grant message; the homeless grantor scans its page list and ships
   the diffs it holds locally. *)
let answer_grant sys p ~grantor ~grant_ready req =
  let via = if sys.bops.b_proto = Some P_lrc then Some grantor else None in
  (match via with
  | Some g when g <> p ->
      Cluster.charge sys.cluster g
        (sys.cluster.Cluster.cfg.Config.wsync_scan_per_page_us
        *. float_of_int
             (List.length (Range.pages ~page_size:sys.page_size req.wr_ranges)))
  | Some _ | None -> ());
  answer sys p ~at:grant_ready ?via ~async:false req
