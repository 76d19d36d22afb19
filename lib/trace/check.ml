(* LRC invariant checker: replay a trace and assert the protocol's
   correctness conditions over the reconstructed per-processor state.

   The checker mirrors, per (processor, page), the applied/known
   watermark arrays the run-time keeps in [page_meta], driven purely by
   the events, and checks:

   - vector clocks are monotone per processor, the own component changes
     only at a release, and no processor's view of another ever exceeds
     the intervals that processor has actually released
     (merge-consistency: the simulator is sequential, so emission order
     is consistent with happens-before);
   - interval sequence numbers are consecutive;
   - write notices are only applied for foreign, already-released
     intervals, and a notice that leaves the page with unapplied foreign
     modifications invalidates the local copy;
   - diffs of one writer apply in non-decreasing interval/stamp order,
     and within one fetch batch a page's diffs apply in non-decreasing
     happens-before stamp order across writers;
   - [applied.(q) <= known.(q)] at all times (an accumulated diff span
     extending past the requested watermark implies the corresponding
     notices, and raises [known] with [applied]);
   - an access miss that must make its page consistent completes an
     unrestricted fetch for that page before the processor's next
     protocol action, and an unrestricted fetch leaves no foreign
     interval known-but-unapplied (no processor reads a page with an
     unapplied happens-before-ordered write notice; lock-grant
     piggy-backed fetches restricted to the grantor's local diffs and
     Push/WRITE_ALL windows are the explicit relaxations);
   - partially pushed pages may roll their watermark back, but only to
     the interval just below the pushed one;
   - barrier arrivals and departures alternate with consecutive epochs;
   - reliable-transport discipline over the unreliable-network events:
     retransmission attempts are consecutive and only follow a drop of
     the outstanding attempt, every dropped attempt is eventually
     retransmitted, each message is acknowledged exactly once (a second
     ack would mean a duplicate was applied twice), the ack's attempt
     count matches the transmissions the trace records, and no message
     is left undelivered at end of trace. *)

module Wmap = Dsm_util.Wmap
module Pset = Dsm_util.Pset

type violation = { event : Event.t option; rule : string; detail : string }

let pp_violation ppf v =
  (match v.event with
  | Some e ->
      Format.fprintf ppf "event #%d (p%d, %s, t=%.1f): " e.Event.id
        e.Event.proc
        (Event.kind_name e.Event.kind)
        e.Event.time
  | None -> ());
  Format.fprintf ppf "[%s] %s" v.rule v.detail

(* Sparse per-writer tables (see Dsm_util.Wmap): a page has few writers,
   and the dense [int array]s of length [nprocs] this replaces made the
   checker O(nprocs) per (processor, page) pair — the reason checked runs
   used to stop at 64 processors. Absent keys read as 0; [last_order]
   distinguishes "never applied" via {!Wmap.find_opt}. *)
type page_state = {
  applied : Wmap.t;
  known : Wmap.t;
  last_order : Wmap.t;  (* per writer, last applied diff stamp *)
  last_upto : Wmap.t;  (* per writer, last applied diff end interval *)
  mutable batch_order : int;  (* max stamp applied since the last fetch *)
}

(* applied(q) := max applied(q) known(q) for every writer q — the sparse
   square-up replacing the dense [for q = 0 to nprocs - 1] scans (only
   explicit [known] entries can raise [applied]). *)
let raise_applied_to_known s =
  Wmap.iter
    (fun q v -> if Wmap.get s.applied q < v then Wmap.set s.applied q v)
    s.known

type proc_state = {
  mutable last_vc : int array option;
  mutable own : int;  (* own interval counter = vc.(p) *)
  mutable last_time : float;
  mutable pending_fetch : int option;  (* faulting page awaiting Fetch_done *)
  mutable in_barrier : bool;
  mutable epoch : int;  (* barriers departed *)
  mutable crashed : bool;  (* between a [Crash] and its [Restart] *)
  mutable ckpt_epoch_hi : int;  (* newest checkpointed barrier epoch *)
  pages : (int, page_state) Hashtbl.t;
}

(* Reliable-delivery state of one transport-level message. The first
   transmission is implicit (attempt 1, no event); retransmissions,
   drops and the final ack are explicit events. *)
type msg_state = {
  m_src : int;
  m_dst : int;
  mutable max_attempt : int;  (* highest transmission attempt recorded *)
  mutable dropped_hi : int;  (* highest attempt reported dropped *)
  mutable acked : bool;
}

(* Single-writer invalidate tracking of one page, opened lazily by the
   first [Inval_send]/[Inval_ack]/[Downgrade] naming it — LRC-only traces
   never allocate any. [iv_transfer] carries the one sanctioned window in
   which a second valid copy may transiently exist: a write-miss fetches
   the current contents from the exclusive owner just before the
   invalidation round that moves ownership to the fetcher. *)
type iv_state = {
  mutable iv_default_invalid : bool;
      (* validity of processors not listed in [iv_flipped]: false for a
         lazily-opened page (everyone starts valid), true for a page
         installed by a protocol switch or plan directive (only the
         owner's copy is mapped) *)
  mutable iv_flipped : Pset.t;  (* procs whose validity differs *)
  mutable iv_pending : int list;  (* dsts of unacknowledged Inval_sends *)
  mutable iv_excl : int option;  (* writer holding the only valid copy *)
  mutable iv_transfer : int option;
      (* proc that fetched under exclusivity and must take ownership next *)
}

(* per proc: copy invalidated, not refetched *)
let iv_invalid s q = Pset.mem q s.iv_flipped <> s.iv_default_invalid

let iv_set_invalid s q b =
  if b = s.iv_default_invalid then s.iv_flipped <- Pset.remove q s.iv_flipped
  else s.iv_flipped <- Pset.add q s.iv_flipped

type state = {
  nprocs : int;
  procs : proc_state array;
  msgs : (int, msg_state) Hashtbl.t;  (* reliable-layer msg id -> state *)
  homes : (int, int) Hashtbl.t;  (* HLRC: page -> home, learned from events *)
  iv : (int, iv_state) Hashtbl.t;  (* invalidate-protocol page tracking *)
  objs : (int, int) Hashtbl.t;
      (* object-granularity regions: page -> obj_size, learned from the
         [Obj_region] declarations at start of trace *)
  mutable violations : violation list;
  mutable nchecked : int;
}

let page_state st p page =
  let ps = st.procs.(p) in
  match Hashtbl.find_opt ps.pages page with
  | Some s -> s
  | None ->
      let s =
        {
          applied = Wmap.create ();
          known = Wmap.create ();
          last_order = Wmap.create ();
          last_upto = Wmap.create ();
          batch_order = min_int;
        }
      in
      Hashtbl.replace ps.pages page s;
      s

let create ~nprocs =
  {
    nprocs;
    procs =
      Array.init nprocs (fun _ ->
          {
            last_vc = None;
            own = 0;
            last_time = 0.0;
            pending_fetch = None;
            in_barrier = false;
            epoch = 0;
            crashed = false;
            ckpt_epoch_hi = 0;
            pages = Hashtbl.create 256;
          });
    msgs = Hashtbl.create 256;
    homes = Hashtbl.create 64;
    iv = Hashtbl.create 64;
    objs = Hashtbl.create 16;
    violations = [];
    nchecked = 0;
  }

let iv_state st page =
  match Hashtbl.find_opt st.iv page with
  | Some s -> s
  | None ->
      let s =
        {
          iv_default_invalid = false;
          iv_flipped = Pset.empty;
          iv_pending = [];
          iv_excl = None;
          iv_transfer = None;
        }
      in
      Hashtbl.replace st.iv page s;
      s

(* Remove one occurrence of [x] (the pending list may name a dst twice
   across overlapping rounds). *)
let rec remove_one x = function
  | [] -> []
  | y :: tl -> if y = x then tl else y :: remove_one x tl

let fail st event rule fmt =
  Printf.ksprintf
    (fun detail ->
      st.violations <- { event = Some event; rule; detail } :: st.violations)
    fmt

(* Look up (or open) the reliable-delivery state of message [msg],
   checking that every event of the message names the same flow. *)
let msg_state st e ~msg ~src ~dst =
  match Hashtbl.find_opt st.msgs msg with
  | Some ms ->
      if ms.m_src <> src || ms.m_dst <> dst then
        fail st e "net-endpoints"
          "message %d seen as p%d->p%d but first recorded as p%d->p%d" msg src
          dst ms.m_src ms.m_dst;
      ms
  | None ->
      let ms =
        { m_src = src; m_dst = dst; max_attempt = 1; dropped_hi = 0;
          acked = false }
      in
      Hashtbl.replace st.msgs msg ms;
      ms

(* HLRC: a page's home is static; the first home-flush/fetch event naming
   a page fixes it, and every later event must agree. *)
let home_of st e ~page ~home =
  (match Hashtbl.find_opt st.homes page with
  | Some h ->
      if h <> home then
        fail st e "home-consistent"
          "page %d homed at p%d but an earlier event homed it at p%d" page
          home h
  | None ->
      if home < 0 || home >= st.nprocs then
        fail st e "home-range" "home p%d out of range" home
      else Hashtbl.replace st.homes page home);
  home

(* A protocol action at which an un-serviced access miss would mean the
   faulting access ran on an inconsistent copy. *)
let closes_fault_window (k : Event.kind) =
  match k with
  | Page_fault _ | Notice_send _ | Barrier_arrive _ | Lock_request _
  | Push_send _ | Validate _ ->
      true
  | _ -> false

let step st (e : Event.t) =
  st.nchecked <- st.nchecked + 1;
  let p = e.proc in
  if p < 0 || p >= st.nprocs then
    fail st e "proc-range" "processor %d out of range" p
  else begin
    let ps = st.procs.(p) in
    (* {2 Vector-clock rules} *)
    if Array.length e.vc <> st.nprocs then
      fail st e "vc-shape" "vector clock has %d components, expected %d"
        (Array.length e.vc) st.nprocs
    else begin
      (match ps.last_vc with
      | Some prev ->
          Array.iteri
            (fun q x ->
              if e.vc.(q) < x then
                fail st e "vc-monotone"
                  "component %d regressed %d -> %d" q x e.vc.(q))
            prev
      | None -> ());
      for q = 0 to st.nprocs - 1 do
        if q <> p && e.vc.(q) > st.procs.(q).own then
          fail st e "vc-merge"
            "view of p%d is %d but p%d has only released interval %d" q
            e.vc.(q) q st.procs.(q).own
      done;
      (match e.kind with
      | Notice_send _ -> ()
      | _ ->
          if e.vc.(p) <> ps.own then
            fail st e "vc-own"
              "own component moved %d -> %d outside a release" ps.own e.vc.(p));
      if e.time < ps.last_time -. 1e-9 then
        fail st e "time-monotone" "clock regressed %.3f -> %.3f" ps.last_time
          e.time;
      ps.last_time <- Float.max ps.last_time e.time;
      ps.last_vc <- Some e.vc
    end;
    (* {2 Access-miss service window} *)
    (match ps.pending_fetch with
    | Some page when closes_fault_window e.kind ->
        fail st e "fault-serviced"
          "page %d faulted but no unrestricted fetch completed before this \
           action"
          page;
        ps.pending_fetch <- None
    | _ -> ());
    (* {2 Per-kind rules} *)
    match e.kind with
    | Notice_send { seq; pages } ->
        if seq <> ps.own + 1 then
          fail st e "interval-seq" "released interval %d after %d" seq ps.own;
        if e.vc.(p) <> seq then
          fail st e "interval-seq" "own vc component %d /= released seq %d"
            e.vc.(p) seq;
        ps.own <- seq;
        List.iter
          (fun page ->
            let s = page_state st p page in
            Wmap.set s.known p (max (Wmap.get s.known p) seq);
            Wmap.set s.applied p (max (Wmap.get s.applied p) seq))
          pages
    | Notice_apply { writer; seq; page; invalidated } ->
        if writer = p then
          fail st e "notice-writer" "notice from self for page %d" page;
        if writer >= 0 && writer < st.nprocs && seq > st.procs.(writer).own
        then
          fail st e "notice-future"
            "notice for p%d interval %d but only %d released" writer seq
            st.procs.(writer).own;
        let s = page_state st p page in
        Wmap.set s.known writer (max (Wmap.get s.known writer) seq);
        if Wmap.get s.known writer > Wmap.get s.applied writer
           && not invalidated
        then
          fail st e "notice-invalidate"
            "page %d has unapplied interval %d of p%d but stayed readable"
            page (Wmap.get s.known writer) writer
    | Diff_create { seq; _ } ->
        if seq > ps.own then
          fail st e "diff-future"
            "materialized through interval %d but only %d released" seq ps.own
    | Diff_fetch { writer; page; after; upto } ->
        if writer = p then
          fail st e "fetch-writer" "fetch from self for page %d" page;
        if upto < after then
          fail st e "fetch-window" "empty window after=%d upto=%d" after upto;
        let s = page_state st p page in
        if after > Wmap.get s.applied writer then
          fail st e "fetch-window"
            "request after=%d beyond mirrored applied=%d for p%d page %d"
            after (Wmap.get s.applied writer) writer page;
        Wmap.set s.applied writer (max (Wmap.get s.applied writer) upto);
        (* an accumulated span past the requested watermark implies the
           spanned notices *)
        Wmap.set s.known writer
          (max (Wmap.get s.known writer) (Wmap.get s.applied writer))
    | Diff_apply { writer; page; order; upto_seq; bytes = _ } ->
        let s = page_state st p page in
        (match Wmap.find_opt s.last_order writer with
        | Some prev when order < prev ->
            fail st e "apply-order-writer"
              "p%d's diff for page %d applied with stamp %d after %d" writer
              page order prev
        | _ -> ());
        if upto_seq < Wmap.get s.last_upto writer then
          fail st e "apply-order-writer"
            "p%d's diff for page %d covers up to %d after %d" writer page
            upto_seq (Wmap.get s.last_upto writer);
        if order < s.batch_order then
          fail st e "apply-order-page"
            "page %d: stamp %d applied after %d within one fetch batch" page
            order s.batch_order;
        Wmap.set s.last_order writer order;
        Wmap.set s.last_upto writer (max (Wmap.get s.last_upto writer) upto_seq);
        s.batch_order <- max s.batch_order order;
        Wmap.set s.applied writer (max (Wmap.get s.applied writer) upto_seq);
        Wmap.set s.known writer
          (max (Wmap.get s.known writer) (Wmap.get s.applied writer))
    | Fetch_done { page; full } ->
        let s = page_state st p page in
        s.batch_order <- min_int;
        (match ps.pending_fetch with
        | Some pg when pg = page -> ps.pending_fetch <- None
        | _ -> ());
        (match Hashtbl.find_opt st.iv page with
        | Some iv ->
            (* the page is governed by the invalidate protocol: a full
               fetch installs the owner's current copy, which covers
               everything anyone knows of the page (like [Home_fetch]) *)
            raise_applied_to_known s;
            (match iv.iv_transfer with
            | Some q when q <> p ->
                fail st e "inval-single-writer"
                  "p%d fetched page %d while p%d's fetch under exclusivity \
                   had not yet taken ownership"
                  p page q;
                iv.iv_transfer <- None
            | _ -> ());
            iv_set_invalid iv p false;
            (match iv.iv_excl with
            | Some w when w <> p ->
                (* only legal as the data leg of an ownership transfer:
                   the next invalidation round must name [p] the writer *)
                iv.iv_transfer <- Some p
            | _ -> ())
        | None ->
            if full then
              Wmap.iter
                (fun q v ->
                  if q <> p && Wmap.get s.applied q < v then
                    fail st e "fetch-complete"
                      "page %d left with p%d applied=%d < known=%d after an \
                       unrestricted fetch"
                      page q (Wmap.get s.applied q) v)
                s.known)
    | Page_fault { page; fetch; _ } ->
        if fetch then ps.pending_fetch <- Some page
    | Twin _ -> ()
    | Barrier_arrive { epoch } ->
        if ps.in_barrier then
          fail st e "barrier-alternate" "second arrival without departure";
        if epoch <> ps.epoch then
          fail st e "barrier-epoch" "arrived at epoch %d, expected %d" epoch
            ps.epoch;
        ps.in_barrier <- true
    | Barrier_depart { epoch } ->
        if not ps.in_barrier then
          fail st e "barrier-alternate" "departure without arrival";
        if epoch <> ps.epoch then
          fail st e "barrier-epoch" "departed epoch %d, expected %d" epoch
            ps.epoch;
        ps.in_barrier <- false;
        ps.epoch <- ps.epoch + 1
    | Lock_request _ -> ()
    | Lock_grant { grantor; _ } ->
        if grantor < 0 || grantor >= st.nprocs then
          fail st e "lock-grantor" "grantor %d out of range" grantor
    | Validate _ -> ()
    | Push_send { dst; seq; _ } ->
        if dst = p then fail st e "push-self" "push to self";
        if seq > ps.own then
          fail st e "push-future" "pushed interval %d but only %d released"
            seq ps.own
    | Push_recv { src; seq; pages; _ } ->
        if src = p then fail st e "push-self" "push from self";
        List.iter
          (fun page ->
            let s = page_state st p page in
            Wmap.set s.known src (max (Wmap.get s.known src) seq);
            Wmap.set s.applied src (max (Wmap.get s.applied src) seq))
          pages
    | Push_rollback { page; writer; seq } ->
        let s = page_state st p page in
        if Wmap.get s.applied writer <> seq then
          fail st e "push-rollback"
            "rollback of p%d on page %d from %d but applied=%d" writer page
            seq (Wmap.get s.applied writer);
        Wmap.set s.applied writer (seq - 1)
    | Broadcast _ -> ()
    (* {2 Single-writer invalidate rules} *)
    | Inval_send { page; dst } ->
        let s = iv_state st page in
        if dst < 0 || dst >= st.nprocs then
          fail st e "inval-dst-range" "invalidation target p%d out of range"
            dst
        else if iv_invalid s dst then
          fail st e "inval-redundant"
            "invalidation of page %d sent to p%d whose copy is already \
             invalid"
            page dst;
        s.iv_pending <- dst :: s.iv_pending
    | Inval_ack { page; writer } ->
        let s = iv_state st page in
        if not (List.mem p s.iv_pending) then
          fail st e "inval-ack-unrequested"
            "p%d acknowledged an invalidation of page %d that was never sent \
             to it"
            p page
        else s.iv_pending <- remove_one p s.iv_pending;
        if iv_invalid s p then
          fail st e "inval-ack-stale"
            "p%d acknowledged an invalidation of page %d while already \
             invalid (it held a copy the directory did not track)"
            p page;
        if writer < 0 || writer >= st.nprocs then
          fail st e "inval-writer-range" "writer p%d out of range" writer
        else begin
          (* the soundness rule of the write path: exclusivity may only be
             granted over a current copy, so a writer whose own copy was
             invalidated must have completed its fetch first *)
          if iv_invalid s writer then
            fail st e "inval-writer-stale"
              "page %d granted exclusively to p%d whose copy is invalid"
              page writer;
          (match s.iv_transfer with
          | Some q when q <> writer ->
              fail st e "inval-single-writer"
                "p%d fetched page %d under exclusivity but ownership moved \
                 to p%d"
                q page writer
          | _ -> ());
          s.iv_transfer <- None;
          s.iv_excl <- Some writer
        end;
        iv_set_invalid s p true
    | Downgrade { page; reader = _ } ->
        let s = iv_state st page in
        if iv_invalid s p then
          fail st e "inval-downgrade-stale"
            "p%d downgraded page %d but its copy is invalid" p page;
        (match s.iv_transfer with
        | Some q ->
            fail st e "inval-single-writer"
              "page %d downgraded while p%d's fetch under exclusivity had \
               not yet taken ownership"
              page q;
            s.iv_transfer <- None
        | None -> ());
        s.iv_excl <- None
    | Proto_switch { page; proto; owner; epoch = _ } ->
        (* epochal reset at global quiescence: the adaptive backend makes
           the page current everywhere before changing its governing
           protocol, so the per-protocol tracking restarts from scratch
           and every processor's watermarks are squared up *)
        Hashtbl.remove st.iv page;
        Hashtbl.remove st.homes page;
        if owner < 0 || owner >= st.nprocs then
          fail st e "proto-owner-range" "owner p%d out of range" owner
        else if proto = "hlrc" then Hashtbl.replace st.homes page owner
        else if proto = "inval" then begin
          (* install the directory view eagerly: only the owner's copy is
             mapped after the switch, so the page's later [Fetch_done]s are
             judged by the invalidate rules (the generic fetch-complete
             rule would misfire on write notices that straggle in at the
             departures following the switch — the switch itself already
             distributed their data) *)
          let s =
            {
              iv_default_invalid = true;
              iv_flipped = Pset.singleton owner;
              iv_pending = [];
              iv_excl = None;
              iv_transfer = None;
            }
          in
          Hashtbl.replace st.iv page s
        end;
        (* square up only the processors that have state for the page:
           absent page states are all-zero and trivially squared *)
        Array.iter
          (fun qs ->
            match Hashtbl.find_opt qs.pages page with
            | Some s ->
                raise_applied_to_known s;
                s.batch_order <- min_int
            | None -> ())
          st.procs
    | Plan_applied { lo_page; hi_page; proto; owner } ->
        (* a static placement directive seeded pages [lo..hi] before the
           first access: install the same per-protocol tracking a
           [Proto_switch] would, so the seeded state is judged by the
           right rules from the first event on. At start of run all
           watermarks are zero, so there is nothing to square up. *)
        if lo_page < 0 || hi_page < lo_page then
          fail st e "plan-page-range" "empty directive range [%d, %d]" lo_page
            hi_page;
        if proto <> "lrc" && proto <> "hlrc" && proto <> "inval" then
          fail st e "plan-proto" "unknown protocol %S" proto;
        if proto <> "lrc" && (owner < 0 || owner >= st.nprocs) then
          fail st e "plan-owner-range" "owner p%d out of range" owner
        else
          for page = lo_page to max lo_page hi_page do
            Hashtbl.remove st.iv page;
            Hashtbl.remove st.homes page;
            if proto = "hlrc" then Hashtbl.replace st.homes page owner
            else if proto = "inval" then
              Hashtbl.replace st.iv page
                {
                  iv_default_invalid = true;
                  iv_flipped = Pset.singleton owner;
                  iv_pending = [];
                  iv_excl = None;
                  iv_transfer = None;
                }
          done
    (* {2 Object-granularity rules} *)
    | Obj_region { base_page; npages; obj_size; count } ->
        if base_page < 0 || npages < 1 || count < 1 then
          fail st e "obj-region-shape"
            "degenerate region: base_page=%d npages=%d count=%d" base_page
            npages count;
        if obj_size < 8 || obj_size mod 8 <> 0 then
          fail st e "obj-region-size" "object size %d is not a positive \
                                       multiple of 8" obj_size;
        for page = base_page to base_page + max 1 npages - 1 do
          Hashtbl.replace st.objs page obj_size
        done
    | Obj_skip { page; slots } ->
        if not (Hashtbl.mem st.objs page) then
          fail st e "obj-skip-region"
            "page %d skipped but no object region was declared for it" page;
        (match slots with
        | [] -> fail st e "obj-skip-slots" "page %d skipped with no slots" page
        | s0 :: _ ->
            let rec ascending = function
              | a :: (b :: _ as tl) -> a < b && ascending tl
              | _ -> true
            in
            if s0 < 0 || not (ascending slots) then
              fail st e "obj-skip-slots"
                "page %d: slot list is not strictly ascending and \
                 non-negative"
                page);
        (* a skip is only legal while the page is genuinely stale: with
           every foreign interval applied, the run-time's validate would
           have found nothing to fetch and nothing to skip *)
        let s = page_state st p page in
        let stale = ref false in
        Wmap.iter
          (fun q v -> if q <> p && v > Wmap.get s.applied q then stale := true)
          s.known;
        if not !stale then
          fail st e "obj-skip-current"
            "page %d skipped but the mirror shows no unapplied foreign \
             interval"
            page
    (* {2 HLRC home rules} *)
    | Home_flush { page; home; seq; bytes = _ } ->
        let home = home_of st e ~page ~home in
        if home = p then
          fail st e "home-flush-self" "p%d flushed page %d to itself" p page;
        if seq > ps.own then
          fail st e "home-flush-future"
            "flushed through interval %d but only %d released" seq ps.own;
        if home >= 0 && home < st.nprocs && home <> p then begin
          let s = page_state st home page in
          if seq <= Wmap.get s.applied p then
            fail st e "home-flush-stale"
              "flush of page %d covers up to interval %d but the home copy \
               already has %d"
              page seq (Wmap.get s.applied p);
          Wmap.set s.applied p (max (Wmap.get s.applied p) seq);
          Wmap.set s.known p
            (max (Wmap.get s.known p) (Wmap.get s.applied p))
        end
    | Home_fetch { page; home; bytes } ->
        let home = home_of st e ~page ~home in
        let s = page_state st p page in
        if home = p then begin
          (* local revalidation: the home's own copy needs no transfer
             (it only looks stale after a conservative push rollback) *)
          if bytes <> 0 then
            fail st e "home-fetch-self"
              "p%d 'fetched' %d bytes of page %d from itself" p bytes page
        end
        else if home >= 0 && home < st.nprocs then begin
          if bytes <= 0 then
            fail st e "home-fetch-bytes" "empty page transfer for page %d"
              page;
          (* the HLRC soundness condition: every released interval is
             flushed before its notice can travel, so the home copy must
             already cover everything the fetcher knows of the page *)
          let sh = page_state st home page in
          Wmap.iter
            (fun q v ->
              if v > Wmap.get sh.applied q then
                fail st e "home-fetch-current"
                  "page %d: fetcher knows p%d interval %d but the home copy \
                   only has %d"
                  page q v (Wmap.get sh.applied q))
            s.known
        end;
        (* a full-page install leaves nothing known-but-unapplied *)
        raise_applied_to_known s;
        s.batch_order <- min_int
    (* {2 Fault-tolerance rules}

       Replica copies are tracked through the members' own page states: a
       [Quorum_write] advances the writer's watermark in every
       acknowledging member's state (like [Home_flush] does for the single
       home), a [Crash] wipes the crashed processor's states, and a
       [Quorum_read] — both the miss path and the restart repair — must
       name a source whose copy covers everything the reader knows. Chained
       together these prove the headline guarantee: a write acknowledged by
       a quorum survives any crash of a minority, because some surviving
       member's state still carries its watermark and the read rule
       rejects any source without it. *)
    | Crash { epoch = _ } ->
        if ps.crashed then
          fail st e "crash-alternate" "second crash without a restart";
        ps.crashed <- true;
        (* all volatile state is gone: watermarks restart from zero (the
           restore/repair events rebuild them) and the vector clock may
           regress to the checkpointed value *)
        Hashtbl.reset ps.pages;
        ps.pending_fetch <- None;
        ps.last_vc <- None
    | Restart { epoch = _; ckpt } ->
        if not ps.crashed then
          fail st e "crash-alternate" "restart without a crash";
        ps.crashed <- false;
        if ckpt < 0 then
          fail st e "restart-ckpt" "restart from negative checkpoint %d" ckpt
    | Suspect { peer; attempts } ->
        if peer < 0 || peer >= st.nprocs then
          fail st e "suspect-range" "suspected peer p%d out of range" peer;
        if peer = p then fail st e "suspect-range" "p%d suspected itself" p;
        if attempts < 1 then
          fail st e "suspect-attempts"
            "suspicion after %d delivery attempts" attempts
    | Quorum_write { page; seq; acks; needed } ->
        if needed < 1 then
          fail st e "quorum-write-under" "write quorum of %d" needed;
        if List.length acks < needed then
          fail st e "quorum-write-under"
            "flush of page %d acknowledged by %d replicas, quorum is %d" page
            (List.length acks) needed;
        if seq > ps.own then
          fail st e "quorum-write-future"
            "flushed through interval %d but only %d released" seq ps.own;
        if List.sort_uniq compare acks <> List.sort compare acks then
          fail st e "quorum-write-acks"
            "replica acknowledged the flush of page %d twice" page;
        List.iter
          (fun a ->
            if a < 0 || a >= st.nprocs then
              fail st e "quorum-write-acks" "acknowledging replica p%d out \
                                             of range" a
            else begin
              let s = page_state st a page in
              Wmap.set s.applied p (max (Wmap.get s.applied p) seq);
              Wmap.set s.known p
                (max (Wmap.get s.known p) (Wmap.get s.applied p))
            end)
          acks
    | Quorum_read { page; from; acks; needed } ->
        if needed < 1 then
          fail st e "quorum-read-under" "read quorum of %d" needed;
        if List.length acks < needed then
          fail st e "quorum-read-under"
            "read of page %d chose among %d live replicas, quorum is %d" page
            (List.length acks) needed;
        if from < 0 || from >= st.nprocs then
          fail st e "quorum-read-source" "source replica p%d out of range"
            from
        else begin
          if not (List.mem from acks) then
            fail st e "quorum-read-source"
              "page %d read from p%d, which is not among the live replicas"
              page from;
          (* the fault-tolerant analog of home-fetch-current: the chosen
             copy must dominate everything the reader knows — this is the
             rule a lost acknowledged write trips after a crash *)
          let s = page_state st p page in
          let sf = page_state st from page in
          Wmap.iter
            (fun q v ->
              if v > Wmap.get sf.applied q then
                fail st e "quorum-read-current"
                  "page %d: reader knows p%d interval %d but replica p%d \
                   only has %d"
                  page q v from (Wmap.get sf.applied q))
            s.known;
          (* the install adopts the source's copy and watermarks *)
          List.iter
            (fun q ->
              let a =
                max (Wmap.get s.applied q)
                  (max (Wmap.get s.known q) (Wmap.get sf.applied q))
              in
              Wmap.set s.applied q a;
              if Wmap.get s.known q < a then Wmap.set s.known q a)
            (List.sort_uniq compare
               (Wmap.keys s.applied @ Wmap.keys s.known @ Wmap.keys sf.applied));
          s.batch_order <- min_int
        end
    | Ckpt { id; ckpt_epoch } ->
        if id < 1 then
          fail st e "ckpt-id" "checkpoint id %d (0 is the implicit initial \
                               checkpoint)" id;
        if ckpt_epoch <= ps.ckpt_epoch_hi then
          fail st e "ckpt-monotone"
            "checkpoint at epoch %d after one at epoch %d" ckpt_epoch
            ps.ckpt_epoch_hi
        else ps.ckpt_epoch_hi <- ckpt_epoch
    (* {2 Reliable-transport rules} *)
    | Msg_drop { msg; src; dst; attempt } ->
        let ms = msg_state st e ~msg ~src ~dst in
        if ms.acked then
          fail st e "net-after-ack"
            "message %d dropped after it was acknowledged" msg;
        if attempt <> ms.max_attempt then
          fail st e "net-drop-attempt"
            "message %d: drop of attempt %d but outstanding attempt is %d" msg
            attempt ms.max_attempt;
        ms.dropped_hi <- max ms.dropped_hi attempt
    | Timeout_fire { msg; src; dst; attempt; backoff_us = _ } ->
        let ms = msg_state st e ~msg ~src ~dst in
        if ms.acked then
          fail st e "net-after-ack"
            "message %d timed out after it was acknowledged" msg;
        if attempt <> ms.dropped_hi then
          fail st e "net-timeout-order"
            "message %d: timeout for attempt %d but last dropped attempt is %d"
            msg attempt ms.dropped_hi
    | Retransmit { msg; src; dst; attempt } ->
        let ms = msg_state st e ~msg ~src ~dst in
        if ms.acked then
          fail st e "net-after-ack"
            "message %d retransmitted after it was acknowledged" msg;
        if attempt <> ms.max_attempt + 1 then
          fail st e "net-retransmit-order"
            "message %d: retransmission is attempt %d but %d attempts were \
             recorded"
            msg attempt ms.max_attempt;
        if ms.dropped_hi < ms.max_attempt then
          fail st e "net-retransmit-spurious"
            "message %d retransmitted but attempt %d was never dropped" msg
            ms.max_attempt;
        ms.max_attempt <- max ms.max_attempt attempt
    | Msg_dup { msg; src; dst } ->
        let ms = msg_state st e ~msg ~src ~dst in
        if ms.acked then
          fail st e "net-after-ack"
            "message %d duplicated after it was acknowledged" msg
    | Ack { msg; src; dst; attempts } ->
        let ms = msg_state st e ~msg ~src ~dst in
        if ms.acked then
          fail st e "net-ack-once"
            "message %d acknowledged twice (a duplicate was applied)" msg;
        if attempts <> ms.max_attempt then
          fail st e "net-ack-attempts"
            "message %d acknowledged after %d attempts but the trace records \
             %d transmissions"
            msg attempts ms.max_attempt;
        if ms.dropped_hi >= ms.max_attempt then
          fail st e "net-ack-dropped"
            "message %d acknowledged but its last attempt %d was dropped and \
             never retransmitted"
            msg ms.max_attempt;
        ms.acked <- true
  end;
  (* {2 Global watermark invariant} *)
  (match e.kind with
  | Notice_send _ | Notice_apply _ | Diff_fetch _ | Diff_apply _
  | Push_recv _ | Push_rollback _ -> (
      let page =
        match e.kind with
        | Notice_send _ -> None (* several pages; all raised known>=applied *)
        | Notice_apply { page; _ }
        | Diff_fetch { page; _ }
        | Diff_apply { page; _ }
        | Push_rollback { page; _ } ->
            Some page
        | Push_recv _ -> None
        | _ -> None
      in
      match page with
      | Some page when e.proc >= 0 && e.proc < st.nprocs ->
          let s = page_state st e.proc page in
          Wmap.iter
            (fun q v ->
              if v > Wmap.get s.known q then
                fail st e "watermark" "page %d: applied=%d > known=%d for p%d"
                  page v (Wmap.get s.known q) q)
            s.applied
      | _ -> ())
  | _ -> ())

let finish st =
  Array.iteri
    (fun p ps ->
      if ps.in_barrier then
        st.violations <-
          {
            event = None;
            rule = "barrier-alternate";
            detail = Printf.sprintf "p%d arrived at epoch %d and never departed"
                p ps.epoch;
          }
          :: st.violations;
      if ps.crashed then
        st.violations <-
          {
            event = None;
            rule = "crash-alternate";
            detail = Printf.sprintf "p%d crashed and never restarted" p;
          }
          :: st.violations)
    st.procs;
  (* Every invalidation round must complete within the trace: an unacked
     send means a sharer kept a copy the directory believes dead, and a
     fetch under exclusivity that never took ownership is a stale read. *)
  Hashtbl.fold (fun page s acc -> (page, s) :: acc) st.iv []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (page, s) ->
         List.iter
           (fun dst ->
             st.violations <-
               {
                 event = None;
                 rule = "inval-unacked";
                 detail =
                   Printf.sprintf
                     "invalidation of page %d sent to p%d was never \
                      acknowledged"
                     page dst;
               }
               :: st.violations)
           (List.sort_uniq compare s.iv_pending);
         match s.iv_transfer with
         | Some q ->
             st.violations <-
               {
                 event = None;
                 rule = "inval-single-writer";
                 detail =
                   Printf.sprintf
                     "p%d fetched page %d under exclusivity and never took \
                      ownership"
                     q page;
               }
               :: st.violations
         | None -> ());
  (* Every transport-level message must reach its receiver: a dropped
     final attempt with no retransmission is a lost message; a message
     that was transmitted but never acknowledged is undelivered. Sort by
     msg id for deterministic reporting. *)
  Hashtbl.fold (fun msg ms acc -> (msg, ms) :: acc) st.msgs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (msg, ms) ->
         if not ms.acked then
           let rule, detail =
             if ms.dropped_hi >= ms.max_attempt then
               ( "net-drop-lost",
                 Printf.sprintf
                   "message %d (p%d->p%d): attempt %d was dropped and never \
                    retransmitted"
                   msg ms.m_src ms.m_dst ms.max_attempt )
             else
               ( "net-undelivered",
                 Printf.sprintf
                   "message %d (p%d->p%d) was never acknowledged" msg ms.m_src
                   ms.m_dst )
           in
           st.violations <- { event = None; rule; detail } :: st.violations);
  List.rev st.violations

let run ~nprocs events =
  let st = create ~nprocs in
  List.iter (step st) events;
  finish st

let run_sink sink = run ~nprocs:(Sink.nprocs sink) (Sink.events sink)
