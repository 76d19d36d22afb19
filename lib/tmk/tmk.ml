type system = Types.system
type t = Types.t

type access = Types.access =
  | Read
  | Write
  | Read_write
  | Write_all
  | Read_write_all

module Cluster = Dsm_sim.Cluster
module Config = Dsm_sim.Config
module Engine = Dsm_sim.Engine
module Page_table = Dsm_mem.Page_table

let make ?plan cfg =
  let nprocs = cfg.Config.nprocs in
  (* A plan generated for a different machine shape would seed wrong
     owners (nprocs) or wrong page numbers (page_size): reject it with
     the shared field/range error format rather than misapply it. *)
  (match plan with
  | None -> ()
  | Some (pl : Proto_plan.t) ->
      if pl.Proto_plan.nprocs <> nprocs then
        invalid_arg
          (Dsm_net.Plan.field_error ~field:"plan nprocs"
             ~value:(string_of_int pl.Proto_plan.nprocs)
             ~range:(Printf.sprintf "{%d}" nprocs));
      if pl.Proto_plan.page_size <> cfg.Config.page_size then
        invalid_arg
          (Dsm_net.Plan.field_error ~field:"plan page_size"
             ~value:(string_of_int pl.Proto_plan.page_size)
             ~range:(Printf.sprintf "{%d}" cfg.Config.page_size)));
  let cluster = Cluster.create cfg in
  let net = Dsm_net.Net.create cluster in
  let page_writers = Ilog.writers () in
  let logs =
    Array.init nprocs (fun q -> Ilog.create ~owner:q ~writers:page_writers ())
  in
  let sys =
  {
    Types.cluster;
    net;
    space = Dsm_mem.Addr_space.create ~page_size:cfg.Config.page_size;
    store =
      Diff_store.create ~nprocs ~page_size:cfg.Config.page_size
        ~retire:(cfg.Config.backend = Config.Hlrc && cfg.Config.replicas = 1);
    fx = Protocol.fetch_scratch nprocs;
    states =
      Array.init nprocs (fun p ->
          {
            Types.me = p;
            pt = Dsm_mem.Page_table.create ~page_size:cfg.Config.page_size;
            vc = Vc.create nprocs;
            dirty = Hashtbl.create 64;
            meta = Dsm_mem.Page_map.create ();
            pending_async = Hashtbl.create 64;
            pending_wsync = [];
            barrier_epoch = 0;
            notices_sent_seq = 0;
            partial_push = [];
            quiet = Bytes.empty;
            logs;
            page_writers;
          });
    logs;
    locks = Hashtbl.create 16;
    barrier =
      {
        Types.epoch = 0;
        arrived = 0;
        arrival_clock = Array.make nprocs 0.0;
        departure_clock = 0.0;
        resume_clock = Array.make nprocs 0.0;
        departure_vc = Vc.create nprocs;
        wsync_tbl = Hashtbl.create 64;
        wsync_done = Hashtbl.create 64;
        bcast_plan = None;
      };
    pushbox = Hashtbl.create 64;
    push_ranges = [];
    page_size = cfg.Config.page_size;
    page_shift =
      (let ps = cfg.Config.page_size in
       if ps > 0 && ps land (ps - 1) = 0 then
         let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1) in
         log2 ps 0
       else -1);
    page_mask =
      (let ps = cfg.Config.page_size in
       if ps > 0 && ps land (ps - 1) = 0 then ps - 1 else 0);
    nprocs;
    homes = Hashtbl.create 64;
    iv_dir = Hashtbl.create 64;
    adapt = Hashtbl.create 64;
    adapt_tick = 0;
    ft = Dsm_ft.Ft.create cfg;
    backend = cfg.Config.backend;
    trace = None;
    pending_plan = plan;
    obj_sizes = [||];
    obj_decls = [];
    has_objs = false;
  }
  in
  (* net events carry the emitting processor's protocol vector clock, so
     they satisfy the checker's vc rules like any other protocol event *)
  Dsm_net.Net.set_vc_source net (fun p -> sys.Types.states.(p).Types.vc);
  sys

(* {1 Static plan seeding}

   Apply a protocol-placement plan's exact directives to the pristine
   system, before any processor runs: set the adaptive backend's initial
   per-page classification (and the matching invalidate-directory /
   home-map state), or — under the plain hlrc backend — just the home
   assignments. Inexact directives are skipped: a widened summary could
   name the wrong owner, and the online machinery corrects cheap
   defaults much faster than wrong seeds. Installation mirrors
   {!Adaptive.switch}'s quiescent-state rewrite, minus the copy
   distribution: at time zero every copy is the identical zero page. *)

let seed_plan sys (pl : Proto_plan.t) =
  let npages = Dsm_mem.Addr_space.n_pages sys.Types.space in
  let install_adapt page proto owner =
    Hashtbl.replace sys.Types.adapt page
      (Fetch.adapt_page proto ~last_writer:owner)
  in
  List.iter
    (fun (d : Proto_plan.directive) ->
      let owner = d.Proto_plan.owner in
      let lo = d.Proto_plan.lo_page
      and hi = min d.Proto_plan.hi_page (npages - 1) in
      let apply =
        match (sys.Types.backend, d.Proto_plan.proto) with
        | Config.Adaptive, Proto_plan.Inval ->
            Some
              (fun page ->
                install_adapt page Proto_plan.Inval owner;
                Invalidate.install sys page ~owner)
        | Config.Adaptive, Proto_plan.Hlrc ->
            Some
              (fun page ->
                install_adapt page Proto_plan.Hlrc owner;
                Hashtbl.replace sys.Types.homes page owner)
        | Config.Hlrc, Proto_plan.Hlrc ->
            Some (fun page -> Hashtbl.replace sys.Types.homes page owner)
        | (Config.Adaptive | Config.Hlrc), Proto_plan.Lrc
        | Config.Hlrc, Proto_plan.Inval
        | (Config.Lrc | Config.Inval), _ ->
            (* lrc directives confirm the default — nothing to install;
               the other backends have no protocol choice for a plan to
               make *)
            None
      in
      match apply with
      | Some f when lo <= hi ->
          for page = lo to hi do
            f page
          done;
          Protocol.emit sys 0
            (Dsm_trace.Event.Plan_applied
               {
                 lo_page = lo;
                 hi_page = hi;
                 proto = Proto_plan.proto_name d.Proto_plan.proto;
                 owner;
               })
      | _ -> ())
    (Proto_plan.exact_directives pl)

let run ?trace sys main =
  sys.Types.trace <- trace;
  Dsm_net.Net.set_trace sys.Types.net trace;
  (* one-shot: the digest pass re-enters [run] and must observe the run's
     final protocol state, not a re-seeded one *)
  (match sys.Types.pending_plan with
  | Some pl ->
      sys.Types.pending_plan <- None;
      seed_plan sys pl
  | None -> ());
  (* declare the object-region geometry to the trace, so the checker can
     judge the Obj_skip events against it *)
  if trace <> None then
    List.iter
      (fun (r : Types.obj_region) ->
        Protocol.emit sys 0
          (Dsm_trace.Event.Obj_region
             {
               base_page = r.Types.or_base_page;
               npages = r.Types.or_npages;
               obj_size = r.Types.or_obj_size;
               count = r.Types.or_count;
             }))
      (List.rev sys.Types.obj_decls);
  (* every program ends with an exit barrier, as in TreadMarks: it restores
     full consistency after any trailing Push phases *)
  Fun.protect
    ~finally:(fun () ->
      sys.Types.trace <- None;
      Dsm_net.Net.set_trace sys.Types.net None)
    (fun () ->
      Engine.run ~nprocs:sys.Types.nprocs (fun p ->
          let t = { Types.sys; p; st = sys.Types.states.(p) } in
          main t;
          Sync_ops.barrier t))

let update_pages_in_use sys =
  sys.Types.cluster.Cluster.pages_in_use <-
    Dsm_mem.Addr_space.n_pages sys.Types.space

module Alloc = struct
  type granularity = Page | Object

  let array sys name ~dims =
    let a =
      Dsm_mem.Addr_space.alloc_array sys.Types.space ~name ~elem_size:8
        (Array.of_list dims)
    in
    update_pages_in_use sys;
    a

  let objs sys ?(granularity = Object) name ~obj_size ~count =
    let page_size = sys.Types.page_size in
    if obj_size < 8 || obj_size mod 8 <> 0 || page_size mod obj_size <> 0 then
      invalid_arg
        (Dsm_net.Plan.field_error ~field:"obj_size"
           ~value:(string_of_int obj_size)
           ~range:
             (Printf.sprintf "multiples of 8 dividing the page size (%d)"
                page_size));
    if count < 1 then
      invalid_arg
        (Dsm_net.Plan.field_error ~field:"count" ~value:(string_of_int count)
           ~range:"[1, ...]");
    (* page alignment plus the divisibility constraint together guarantee
       that no object straddles a page boundary *)
    let a =
      Dsm_mem.Addr_space.alloc_array sys.Types.space ~name ~page_align:true
        ~elem_size:8
        [| count * obj_size / 8 |]
    in
    update_pages_in_use sys;
    (match granularity with
    | Page -> ()
    | Object ->
        let base_page = a.Dsm_rsd.Section.base / page_size in
        let npages = ((count * obj_size) + page_size - 1) / page_size in
        let sizes = sys.Types.obj_sizes in
        if base_page + npages > Array.length sizes then begin
          let b = Array.make (base_page + npages) 0 in
          Array.blit sizes 0 b 0 (Array.length sizes);
          sys.Types.obj_sizes <- b
        end;
        Array.fill sys.Types.obj_sizes base_page npages obj_size;
        sys.Types.obj_decls <-
          {
            Types.or_base_page = base_page;
            or_npages = npages;
            or_obj_size = obj_size;
            or_count = count;
          }
          :: sys.Types.obj_decls;
        sys.Types.has_objs <- true);
    a
end
let pid (t : t) = t.Types.p
let nprocs (t : t) = t.Types.sys.Types.nprocs
let charge (t : t) us = Cluster.charge t.Types.sys.Types.cluster t.Types.p us

(* Every protocol-visible operation runs the shared entry points, which
   match on the backend {!make} was given where the protocols differ. *)
let backend_name sys = Config.backend_name sys.Types.backend
let barrier = Sync_ops.barrier
let lock_acquire = Sync_ops.lock_acquire
let lock_release = Sync_ops.lock_release
let validate = Validate.validate
let validate_w_sync = Validate.validate_w_sync
let push = Validate.push

let elapsed sys = Cluster.elapsed sys.Types.cluster
let time (t : t) = Cluster.time t.Types.sys.Types.cluster t.Types.p
let stats sys = sys.Types.cluster.Cluster.stats
let total_stats sys = Dsm_sim.Stats.total (stats sys)

(* Content digest of every allocated array, observed through the protocol
   (an extra run in which processor 0 reads all of shared memory; plain
   byte inspection would see stale local copies). Used by the
   backend-equivalence tests: capture timing/statistics results before
   calling this, as the digest run advances the simulated clocks. *)
let digest sys =
  let buf = Buffer.create 4096 in
  (* the verification read pass observes the (possibly recovered) final
     state; it must not trigger crash events still pending in the schedule *)
  Dsm_ft.Ft.disarm sys.Types.ft;
  (* an object-granularity page skipped by a validate can be left readable
     while some of its slots are stale (the run never read them); the exit
     barrier applies only NEW notices, so the digest's read pass would see
     the stale bytes. Force those pages through the miss path. *)
  if sys.Types.has_objs then begin
    let st0 = sys.Types.states.(0) in
    let forced = ref [] in
    Array.iteri
      (fun page osz ->
        if osz > 0 then
          match Dsm_mem.Page_map.find st0.Types.meta page with
          | Some m when not (Types.Pset.is_empty m.Types.ob_stale) ->
              if Page_table.invalidate st0.Types.pt page then
                forced := page :: !forced
          | _ -> ())
      sys.Types.obj_sizes;
    if !forced <> [] then Protocol.protect_runs sys 0 !forced
  end;
  run sys (fun t ->
      if t.Types.p = 0 then
        List.iter
          (fun (a : Dsm_rsd.Section.array_info) ->
            let n = Array.fold_left ( * ) 1 a.Dsm_rsd.Section.extents in
            for i = 0 to n - 1 do
              Buffer.add_int64_le buf
                (Shm.get_raw64 t (a.Dsm_rsd.Section.base + (8 * i)))
            done)
          (Dsm_mem.Addr_space.arrays sys.Types.space));
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Snapshot of the page-to-home assignments the run actually made, sorted
   by page. Empty unless the hlrc backend assigned any (first-touch makes
   the assignments data-dependent, which is exactly what the determinism
   regression tests compare). Capture before {!digest}: the digest run's
   read pass can itself assign homes to pages nobody had touched. *)
let homes sys =
  List.sort compare
    (Hashtbl.fold (fun page home acc -> (page, home) :: acc) sys.Types.homes [])

(* Final adaptive classification, for grading static predictions against
   what the online classifier converged to. Pages the run never touched
   (and never seeded) are absent: they stayed under the LRC default. *)
let adapt_classes sys =
  Hashtbl.fold
    (fun page (a : Types.adapt_page) acc ->
      let owner =
        match a.Types.ap_proto with
        | Proto_plan.Inval -> (
            match Hashtbl.find_opt sys.Types.iv_dir page with
            | Some e -> e.Types.iv_owner
            | None -> -1)
        | Proto_plan.Hlrc -> (
            match Hashtbl.find_opt sys.Types.homes page with
            | Some h -> h
            | None -> -1)
        | Proto_plan.Lrc -> -1
      in
      (page, Proto_plan.proto_name a.Types.ap_proto, owner) :: acc)
    sys.Types.adapt []
  |> List.sort compare
