(* The augmented run-time interface of Section 3 of the paper: [Validate],
   [Validate_w_sync] and [Push]. *)

open Types
module Cluster = Dsm_sim.Cluster
module Config = Dsm_sim.Config
module Stats = Dsm_sim.Stats
module Engine = Dsm_sim.Engine
module Net = Dsm_net.Net
module Range = Dsm_rsd.Range
module Section = Dsm_rsd.Section
module Page_table = Dsm_mem.Page_table
module Prof = Dsm_prof.Prof

(* Validate(section, access_type), Figure 3. The synchronous version fetches
   and applies diffs before returning; the asynchronous version only sends
   the fetch requests — the page-fault handler completes the work at the
   first access (Section 3.2.3).

   Pages inside an object-granularity region whose validated objects are
   all current are dropped from the fetch ({!Protocol.obj_skip}); their
   access state is still applied (asynchronous validates apply it
   immediately — no request is in flight, so the fault handler must never
   run for them). The converse case — a page an earlier skip left
   accessible that is now validated with a stale object — cannot be
   fetched asynchronously at all: no fault will run to consume the
   response, so {!Protocol.split_unfaultable} routes it through the
   synchronous fetch.

   Every backend runs this one entry point: each page goes through the
   policy governing it ({!Fetch.groups}) — the directory transactions of
   the invalidate protocol, or a planned transfer of diffs or home
   copies. *)
let validate t ?(async = false) sections access =
  Prof.enter Prof.Sync;
  let sys = t.sys
  and p = t.p in
  let st = state t in
  let pstats = stats t in
  pstats.Stats.validates <- pstats.Stats.validates + 1;
  let ranges = Section.union_ranges sections in
  let pages = Range.pages ~page_size:sys.page_size ranges in
  if sys.trace <> None then
    Protocol.emit sys p
      (Dsm_trace.Event.Validate
         {
           access = access_to_string access;
           npages = List.length pages;
           async;
           w_sync = false;
         });
  List.iter (Fetch.observe sys p access) pages;
  (* object skipping runs under the fixed backends only: the adaptive
     classifier must see every page's accesses through the policies *)
  let skips =
    match sys.backend with
    | Config.Lrc | Config.Hlrc | Config.Inval -> true
    | Config.Adaptive -> false
  in
  List.iter
    (fun (proto, pgs, sub) ->
      match (proto, access) with
      | Proto_plan.Inval, _ -> Invalidate.satisfy sys p access pgs
      | _, Write_all ->
          (* no data movement: consistency deliberately bypassed *)
          Protocol.apply_access_state sys p ~ranges:sub ~access
      | _, (Read | Write | Read_write | Read_write_all) ->
          let to_fetch, skipped =
            if skips then Protocol.obj_skip sys p ~ranges pgs else (pgs, [])
          in
          if async then begin
            let faultable, unfaultable =
              if skips then Protocol.split_unfaultable sys p to_fetch
              else (to_fetch, [])
            in
            (* a page whose response is still in flight is consumed at
               its fault *)
            Fetch.fetch sys p proto
              (List.filter
                 (fun g -> not (Hashtbl.mem st.pending_async g))
                 faultable)
              ~mode:Protocol.Async ();
            if unfaultable <> [] then
              Fetch.fetch sys p proto unfaultable ~mode:Protocol.Rpc ();
            (* record now so the fault handler skips twin creation *)
            if access = Read_write_all then
              Protocol.record_write_all sys p sub;
            if skipped <> [] || unfaultable <> [] then
              Protocol.apply_access_state sys p
                ~ranges:(Protocol.clip_to_pages sys ranges (skipped @ unfaultable))
                ~access
          end
          else begin
            Fetch.fetch sys p proto to_fetch ~mode:Protocol.Rpc ();
            Protocol.apply_access_state sys p ~ranges:sub ~access
          end)
    (Fetch.groups sys pages ranges);
  Prof.exit Prof.Sync

(* Validate_w_sync: identical to Validate, but the request for diffs is
   piggy-backed on the next synchronization operation (lock acquire or
   barrier), where it is answered with the diffs the releaser (or the other
   processors) hold locally. *)
let validate_w_sync t ?(async = false) sections access =
  let sys = t.sys in
  let st = state t in
  let pstats = stats t in
  pstats.Stats.validates <- pstats.Stats.validates + 1;
  let ranges = Section.union_ranges sections in
  if sys.trace <> None then
    Protocol.emit sys t.p
      (Dsm_trace.Event.Validate
         {
           access = access_to_string access;
           npages = List.length (Range.pages ~page_size:sys.page_size ranges);
           async;
           w_sync = true;
         });
  st.pending_wsync <-
    st.pending_wsync
    @ [ { wr_ranges = ranges; wr_access = access; wr_async = async } ]

(* Push(r_section[0..N-1], w_section[0..N-1]), Figure 3: replaces a barrier
   with point-to-point exchanges of exactly the data written before and read
   after. Data is received in place, not as diffs. Only the pushed sections
   are made consistent; full consistency is restored at the next barrier.

   The exchange itself is protocol-independent; {!Fetch.release}
   closes the sender's interval (the homeless LRC keeps the diffs for
   later fetches, HLRC additionally flushes them to the homes).

   Pages governed by the single-writer invalidate protocol carry no
   interval watermarks: the sender owns them exclusively (it wrote them),
   so the payload bytes are valid, but the receiver-side LRC bookkeeping
   (watermarks, partial-push tracking, revalidation) must not run —
   {!Invalidate.push_received} decides what receipt means. *)
(* [f pg off at len] over the page-bounded chunks of the byte range
   [lo, hi): [len] bytes at offset [off] of page copy [pg], at offset [at]
   of the range. *)
let iter_chunks sys st ~lo ~hi f =
  let pos = ref lo in
  while !pos < hi do
    let page = !pos / sys.page_size in
    let off = !pos mod sys.page_size in
    let len = min (hi - !pos) (sys.page_size - off) in
    f (Page_table.get st.pt page) off (!pos - lo) len;
    pos := !pos + len
  done

(* The normalized ranges of every processor's sections in [sections],
   from the cache when the array's elements are the ones cached (the
   eight most recent arrays are kept). *)
let push_ranges sys sections =
  let same (snapshot, _) =
    Array.length snapshot = Array.length sections
    && Array.for_all2 ( == ) snapshot sections
  in
  match List.find_opt same sys.push_ranges with
  | Some (_, ranges) -> ranges
  | None ->
      let ranges = Array.map Section.union_ranges sections in
      sys.push_ranges <-
        (Array.copy sections, ranges)
        :: List.filteri (fun i _ -> i < 7) sys.push_ranges;
      ranges

let push t ~read_sections ~write_sections =
  let sys = t.sys
  and p = t.p in
  let read_ranges = push_ranges sys read_sections
  and write_ranges = push_ranges sys write_sections in
  let my_writes = write_ranges.(p)
  and my_reads = read_ranges.(p) in
  List.iter (Fetch.observe sys p Write)
    (Range.pages ~page_size:sys.page_size my_writes);
  List.iter (Fetch.observe sys p Read)
    (Range.pages ~page_size:sys.page_size my_reads);
  Prof.enter Prof.Sync;
  let st = state t in
  let cfg = sys.cluster.Cluster.cfg in
  let pstats = stats t in
  pstats.Stats.pushes <- pstats.Stats.pushes + 1;
  Fetch.release sys p;
  let my_seq = Vc.get st.vc p in
  (* send phase *)
  for i = 0 to sys.nprocs - 1 do
    if i <> p then begin
      let inter = Range.inter read_ranges.(i) my_writes in
      if not (Range.is_empty inter) then begin
        (* collect payload from my own copy *)
        let payload = ref [] in
        Range.iter inter (fun ~lo ~hi ->
            let buf = Bytes.create (hi - lo) in
            iter_chunks sys st ~lo ~hi (fun pg off at len ->
                Bytes.blit pg.Page_table.data off buf at len);
            payload := (lo, buf) :: !payload);
        (* back-pressure: at most one in-flight push per (src, dst) pair *)
        Prof.exit Prof.Sync;
        Engine.block ~until:(fun () -> not (Hashtbl.mem sys.pushbox (p, i)));
        Prof.enter Prof.Sync;
        let bytes = Range.size inter + 32 in
        let arrival = Net.send sys.net ~src:p ~dst:i ~bytes in
        if sys.trace <> None then
          Protocol.emit sys p
            (Dsm_trace.Event.Push_send { dst = i; bytes; seq = my_seq });
        Hashtbl.replace sys.pushbox (p, i)
          {
            pm_arrival = arrival;
            pm_payload = List.rev !payload;
            pm_seq = my_seq;
          }
      end
    end
  done;
  (* receive phase *)
  for i = 0 to sys.nprocs - 1 do
    if i <> p then begin
      let expect = Range.inter write_ranges.(i) my_reads in
      if not (Range.is_empty expect) then begin
        Prof.exit Prof.Sync;
        Engine.block ~until:(fun () -> Hashtbl.mem sys.pushbox (i, p));
        Prof.enter Prof.Sync;
        let msg = Hashtbl.find sys.pushbox (i, p) in
        Hashtbl.remove sys.pushbox (i, p);
        Cluster.recv_charge sys.cluster ~dst:p ~arrival:msg.pm_arrival
          ~interrupt:true;
        (* overlay the pushed data in place *)
        let total = ref 0 in
        List.iter
          (fun (lo, buf) ->
            let hi = lo + Bytes.length buf in
            total := !total + (hi - lo);
            iter_chunks sys st ~lo ~hi (fun pg off at len ->
                Bytes.blit buf at pg.Page_table.data off len;
                match pg.Page_table.twin with
                | Some twin -> Bytes.blit buf at twin off len
                | None -> ()))
          msg.pm_payload;
        let pushed_ranges =
          Range.normalize
            (List.map
               (fun (lo, buf) -> (lo, lo + Bytes.length buf))
               msg.pm_payload)
        in
        Cluster.charge sys.cluster p
          (cfg.Config.diff_apply_per_byte_us *. float_of_int !total);
        if sys.trace <> None then
          Protocol.emit sys p
            (Dsm_trace.Event.Push_recv
               {
                 src = i;
                 bytes = !total;
                 seq = msg.pm_seq;
                 pages = Range.pages ~page_size:sys.page_size pushed_ranges;
               });
        (* The pushed interval counts as received in place for every page it
           touched — even partially covered ones: the compiler guarantees
           the program does not read the regions left inconsistent, and the
           next global synchronization restores full consistency for
           everything else (the sender's write notices still travel with the
           barrier, but find [applied = known] for these pages). *)
        let revalidated = ref [] in
        List.iter
          (fun page ->
            let covered =
              Range.covers pushed_ranges ~lo:(page * sys.page_size)
                ~hi:((page + 1) * sys.page_size)
            in
            if Fetch.proto_of sys page = Proto_plan.Inval then
              Invalidate.push_received sys p ~page ~covered
            else begin
              let m = Protocol.meta st page in
              if msg.pm_seq > Wmap.get m.applied i then begin
                Wmap.set m.applied i msg.pm_seq;
                if msg.pm_seq > Wmap.get m.known i then
                  Wmap.set m.known i msg.pm_seq;
                Diff_store.note_applied sys.store ~writer:i ~page ~by:p
                  ~seq:msg.pm_seq;
                if not covered then
                  (* the rest of the page stays inconsistent until the next
                     global synchronization rolls this watermark back *)
                  st.partial_push <- (page, i, msg.pm_seq) :: st.partial_push
              end;
              let pg = Page_table.get st.pt page in
              if
                pg.Page_table.prot = Page_table.No_access
                && not (Protocol.stale p m)
              then begin
                Protocol.grant st page pg Page_table.Read_only;
                revalidated := page :: !revalidated
              end
            end)
          (Range.pages ~page_size:sys.page_size pushed_ranges);
        if !revalidated <> [] then Protocol.protect_runs sys p !revalidated
      end
    end
  done;
  Prof.exit Prof.Sync
