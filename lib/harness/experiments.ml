open Dsm_apps.App_common
module A = Dsm_apps.App_common
module Stats = Dsm_sim.Stats

module type S = Dsm_apps.Workload.S

let rule ppf n = Format.fprintf ppf "%s@." (String.make n '-')

let title r = r.Grid.name ^ " - " ^ r.Grid.size_name

let table1 ppf _g =
  Format.fprintf ppf "@.Table 1: applications, data set sizes, and uniprocessor execution times@.";
  rule ppf 64;
  Format.fprintf ppf "%-12s %-12s %14s@." "Application" "Data set" "Time (s)";
  rule ppf 64;
  List.iter
    (fun r ->
      Format.fprintf ppf "%-12s %-12s %14.1f@."
        (r.Grid.name ^ " - " ^ r.Grid.label)
        r.Grid.size_name
        (r.Grid.seq_time_us /. 1e6))
    Grid.paper;
  rule ppf 64

let pct_reduction base opt =
  100.0 *. (float_of_int base -. float_of_int opt) /. float_of_int (max 1 base)

let table2 ppf g =
  Format.fprintf ppf
    "@.Table 2: percentage reduction in page faults (segv), messages and data@.";
  Format.fprintf ppf "(compiler-optimized TreadMarks vs base TreadMarks)@.";
  rule ppf 64;
  Format.fprintf ppf "%-22s %8s %8s %8s@." "Application" "% segv" "% msg" "% data";
  rule ppf 64;
  List.iter
    (fun r ->
      let b = Grid.base g r
      and o = Grid.best_opt g ~async:false r in
      Format.fprintf ppf "%-22s %8.1f %8.1f %8.1f@." (title r)
        (pct_reduction b.stats.Stats.segv o.stats.Stats.segv)
        (pct_reduction b.stats.Stats.messages o.stats.Stats.messages)
        (pct_reduction b.stats.Stats.bytes o.stats.Stats.bytes))
    Grid.paper;
  rule ppf 64

let pp_speedup ppf = function
  | Some s -> Format.fprintf ppf "%8.2f" s
  | None -> Format.fprintf ppf "%8s" "-"

let figure5 ppf g =
  Format.fprintf ppf
    "@.Figure 5: speedups on 8 processors (Tmk, Opt-Tmk, XHPF, PVMe)@.";
  rule ppf 70;
  Format.fprintf ppf "%-22s %8s %8s %8s %8s@." "Application" "Tmk" "Opt-Tmk"
    "XHPF" "PVMe";
  rule ppf 70;
  List.iter
    (fun r ->
      let sp = Grid.speedup r in
      Format.fprintf ppf "%-22s %8.2f %8.2f %a %8.2f@." (title r)
        (sp (Grid.base g r))
        (sp (Grid.best_opt g ~async:true r))
        pp_speedup
        (Option.map sp (Grid.get g r Grid.Xhpf))
        (sp (Option.get (Grid.get g r Grid.Pvm))))
    Grid.paper;
  rule ppf 70

let figure6 ppf g =
  Format.fprintf ppf
    "@.Figure 6: speedups under cumulative optimization levels@.";
  Format.fprintf ppf
    "(Base / +Comm.Aggr / +Cons.Elim / +Sync+Data merge / +Push; '-' = not applicable)@.";
  rule ppf 100;
  Format.fprintf ppf "%-22s %8s %8s %8s %8s %8s %8s %8s@." "Application" "Base"
    "C.Aggr" "C.Elim" "S+D" "Push" "XHPF" "PVMe";
  rule ppf 100;
  List.iter
    (fun r ->
      let sp = Grid.speedup r in
      let level l = Option.map sp (Grid.get g r (Grid.Tmk (l, true))) in
      Format.fprintf ppf "%-22s %8.2f %a %a %a %a %a %8.2f@." (title r)
        (sp (Grid.base g r))
        pp_speedup (level Comm_aggr) pp_speedup (level Cons_elim) pp_speedup
        (level Sync_merge) pp_speedup (level Push_opt) pp_speedup
        (Option.map sp (Grid.get g r Grid.Xhpf))
        (sp (Option.get (Grid.get g r Grid.Pvm))))
    Grid.paper;
  rule ppf 100

let figure7 ppf g =
  Format.fprintf ppf
    "@.Figure 7: synchronous vs asynchronous data fetching (large data sets)@.";
  rule ppf 58;
  Format.fprintf ppf "%-22s %8s %8s %8s@." "Application" "Tmk" "Sync" "Async";
  rule ppf 58;
  List.iter
    (fun r ->
      if r.Grid.label = "large" then begin
        (* the contrast is between fetch modes of the Validate-based
           configuration (consistency elimination level, applicable to
           every program); Push is synchronous-only per Section 3.3 *)
        let sp = Grid.speedup r in
        let fetch async = Option.map sp (Grid.get g r (Grid.Tmk (Cons_elim, async))) in
        Format.fprintf ppf "%-22s %8.2f %a %a@." (title r)
          (sp (Grid.base g r))
          pp_speedup (fetch false) pp_speedup (fetch true)
      end)
    Grid.paper;
  rule ppf 58

(* {1 Extension experiments (beyond the paper)} *)

(* {2 Scaling to 64-1024 simulated processors}

   The paper's evaluation stops at 8 processors (the SP/2 it had).
   Section 6.4 conjectures the compiler's optimizations "may be more
   beneficial at larger numbers of processors, since the overhead of global
   synchronization and consistency increases" — these experiments size the
   cluster up to where that claim becomes testable. Data sets grow with
   the processor count (weak scaling: the per-processor slab stays
   meaningful), using each application's large calibrated per-element
   costs; the reported numbers are simulated speedups over the
   uniprocessor run, so they are bit-deterministic and digest-gated like
   every other experiment. *)

let scale_header ppf =
  rule ppf 72;
  Format.fprintf ppf "%-26s %5s" "Application" "procs";
  List.iter (fun (_, n) -> Format.fprintf ppf " %9s" n) Grid.backends;
  Format.fprintf ppf "@.";
  rule ppf 72

(* One application at custom-sized parameters, under each backend. *)
let scale_row (type p) ppf g ~procs label
    (module W : S with type size = p and type behavior = unit) (params : p) =
  let seq = W.seq_time_us params in
  Format.fprintf ppf "%-26s %5d" label procs;
  Format.pp_print_flush ppf ();
  List.iter
    (fun (backend, _) ->
      let cfg = { (Grid.cfg g) with Dsm_sim.Config.nprocs = procs; backend } in
      let r =
        Option.get
          (Grid.run g (module W) ~cfg ~size:(label, params)
             (Grid.Tmk (A.Base, false)))
      in
      Format.fprintf ppf " %9.1f" (seq /. r.A.time_us);
      (* flush per cell: these rows take minutes at 1024 procs, and a
         watcher (CI log, tee) should see progress cell by cell *)
      Format.pp_print_flush ppf ())
    Grid.backends;
  Format.fprintf ppf "@."

(* The 64-processor tier: all six applications under all four coherence
   backends. IS is the stress case on purpose — its bucket array is
   written by every processor, so consistency traffic grows quadratically
   with the cluster and the speedup curve bends first. *)
let scaling ppf g =
  Format.fprintf ppf
    "@.Scaling: six applications at 64 simulated processors, four backends@.";
  Format.fprintf ppf
    "(weak-scaled data sets; simulated speedup over the uniprocessor run)@.";
  scale_header ppf;
  let row label w params = scale_row ppf g ~procs:64 label w params in
  row "Jacobi 1024x1024 i5" (module Dsm_apps.Jacobi)
    { Dsm_apps.Jacobi.large with m = 1024; iters = 5 };
  row "IS 2^18 keys r2" (module Dsm_apps.Is) { Dsm_apps.Is.large with reps = 2 };
  row "Gauss 512x512" (module Dsm_apps.Gauss) Dsm_apps.Gauss.large;
  row "3D-FFT 64^3 i1" (module Dsm_apps.Fft3d)
    { Dsm_apps.Fft3d.large with n = 64; iters = 1 };
  row "MGS 256x256" (module Dsm_apps.Mgs) Dsm_apps.Mgs.large;
  row "Shallow 512x256 s4" (module Dsm_apps.Shallow)
    { Dsm_apps.Shallow.large with m = 512; n = 256; steps = 4 };
  rule ppf 72

(* The 256- and 1024-processor tiers. Applications whose consistency
   traffic is all-to-all (IS) or whose slab partitioning runs out of planes
   (3D-FFT at n < nprocs) stay in the 64-processor tier; these tiers keep
   the nearest-neighbour and reduction codes where a thousand-processor
   cluster is meaningful. Host cost grows with nprocs^2 per barrier (write
   notices), so this experiment is measured in the full bench set only —
   the quick CI gate runs {!scaling} above. *)
let scaling_deep ppf g =
  Format.fprintf ppf
    "@.Scaling deep: 256 and 1024 simulated processors, four backends@.";
  Format.fprintf ppf
    "(weak-scaled data sets; simulated speedup over the uniprocessor run)@.";
  scale_header ppf;
  scale_row ppf g ~procs:256 "Jacobi 2048x2048 i3" (module Dsm_apps.Jacobi)
    { Dsm_apps.Jacobi.large with m = 2048; iters = 3 };
  scale_row ppf g ~procs:256 "MGS 512x512" (module Dsm_apps.Mgs)
    { Dsm_apps.Mgs.large with m = 512; n = 512 };
  scale_row ppf g ~procs:256 "Shallow 1024x512 s3" (module Dsm_apps.Shallow)
    { Dsm_apps.Shallow.large with m = 1024; n = 512; steps = 3 };
  (* m = 2050: 2048 interior columns, exactly two per processor *)
  scale_row ppf g ~procs:1024 "Jacobi 2050x2050 i2" (module Dsm_apps.Jacobi)
    { Dsm_apps.Jacobi.large with m = 2050; iters = 2 };
  rule ppf 72

(* Each DESIGN.md mechanism toggled off, on the workload it serves. *)
let ablation ppf g =
  Format.fprintf ppf "@.Ablations: run-time mechanisms toggled off@.";
  rule ppf 76;
  Format.fprintf ppf "%-46s %12s %12s@." "mechanism / workload" "on" "off";
  rule ppf 76;
  let time_of (r : A.result) = r.A.time_us /. 1e3 in
  let bytes_of (r : A.result) = float_of_int r.A.stats.Stats.bytes /. 1e6 in
  let cfg = Grid.cfg g in
  let run name cfg level async =
    Option.get (Grid.get g ~cfg (Grid.kernel name ~size:"small") (Grid.Tmk (level, async)))
  in
  (* 1. barrier-time broadcast: Gauss sync+data merge *)
  let on = run "gauss" cfg A.Sync_merge false in
  let off =
    run "gauss" { cfg with Dsm_sim.Config.enable_bcast = false } A.Sync_merge false
  in
  Format.fprintf ppf "%-46s %10.0fms %10.0fms@."
    "barrier broadcast (Gauss small, sync+merge)" (time_of on) (time_of off);
  (* 2. supersede pruning: IS cons-elim data volume *)
  let on = run "is" cfg A.Cons_elim true in
  let off =
    run "is" { cfg with Dsm_sim.Config.enable_supersede = false } A.Cons_elim true
  in
  Format.fprintf ppf "%-46s %10.1fMB %10.1fMB@."
    "WRITE_ALL supersede (IS small, data moved)" (bytes_of on) (bytes_of off);
  Format.fprintf ppf "%-46s %10.0fms %10.0fms@."
    "WRITE_ALL supersede (IS small, time)" (time_of on) (time_of off);
  (* 3. hot-spot queueing: MGS base (single-producer fetch storms) *)
  let on = run "mgs" cfg A.Base false in
  let off =
    run "mgs"
      { cfg with Dsm_sim.Config.enable_hotspot_queueing = false }
      A.Base false
  in
  Format.fprintf ppf "%-46s %10.0fms %10.0fms@."
    "hot-spot queueing (MGS small, base)" (time_of on) (time_of off);
  rule ppf 76

(* The whole protocol family side by side: which consistency protocol
   suits which sharing pattern. Base rows are fault-driven (the protocol
   alone moves the data); deepest-level rows show how much the compiler's
   Validate/Push annotations flatten the differences. Correctness is
   protocol-independent (the backend-equivalence tests pin the outputs
   bit-for-bit), so the table reports where the costs go: messages, data
   volume and speedup. Any other level is one key away. *)
let protocol_matrix ppf g =
  let module Config = Dsm_sim.Config in
  let cfg = Grid.cfg g in
  Format.fprintf ppf
    "@.Protocol matrix: lrc / hlrc / inval / adaptive across the six \
     applications@.";
  Format.fprintf ppf
    "(small data sets, %d processors, async fetch, hlrc homes: %s; '*' \
     marks the row's fewest messages, least data and best speedup)@."
    cfg.Config.nprocs
    (Config.home_policy_name cfg.Config.home_policy);
  rule ppf 133;
  Format.fprintf ppf "%-10s %-10s" "Application" "level";
  List.iter (fun (_, n) -> Format.fprintf ppf " %9s" ("m." ^ n)) Grid.backends;
  List.iter (fun (_, n) -> Format.fprintf ppf " %8s" ("MB." ^ n)) Grid.backends;
  List.iter (fun (_, n) -> Format.fprintf ppf " %8s" ("s." ^ n)) Grid.backends;
  Format.fprintf ppf "@.";
  rule ppf 133;
  List.iter
    (fun (name, _) ->
      let row = Grid.kernel name ~size:"small" in
      List.iter
        (fun level ->
          let rs =
            List.map
              (fun (backend, _) ->
                Option.get
                  (Grid.get g ~cfg:{ cfg with Config.backend } row
                     (Grid.Tmk (level, true))))
              Grid.backends
          in
          (* each column marks its row's best value with a '*' *)
          let marked best value = if value = best then "*" else " " in
          let msgs = List.map (fun (r : A.result) -> r.A.stats.Stats.messages) rs
          and bytes = List.map (fun (r : A.result) -> r.A.stats.Stats.bytes) rs
          and sps = List.map (Grid.speedup row) rs in
          let min_m = List.fold_left min max_int msgs
          and min_b = List.fold_left min max_int bytes
          and max_s = List.fold_left max 0.0 sps in
          Format.fprintf ppf "%-10s %-10s" row.Grid.name (A.opt_level_name level);
          List.iter (fun m -> Format.fprintf ppf " %8d%s" m (marked min_m m)) msgs;
          List.iter
            (fun b ->
              Format.fprintf ppf " %7.1f%s" (float_of_int b /. 1e6) (marked min_b b))
            bytes;
          List.iter (fun s -> Format.fprintf ppf " %7.2f%s" s (marked max_s s)) sps;
          Format.fprintf ppf "@.")
        (List.sort_uniq compare [ A.Base; Grid.deepest row ]))
    Dsm_apps.Registry.kernels;
  rule ppf 133

(* Drop-rate sweep over the unreliable transport: correctness must be
   untouched (losses are recovered by the reliable layer), only time and
   the fault counters move. *)
let faults ppf g =
  Format.fprintf ppf
    "@.Fault injection: drop-rate sweep (8 processors, small sets, best \
     level; dup 1%%, jitter 50us, seed 1)@.";
  rule ppf 78;
  Format.fprintf ppf "%-12s %6s %12s %8s %8s %8s %8s@." "Application" "drop"
    "time(us)" "dropped" "timeout" "retrans" "dup";
  rule ppf 78;
  List.iter
    (fun name ->
      let row = Grid.kernel name ~size:"small" in
      List.iter
        (fun drop ->
          let faulty = drop > 0.0 in
          let cfg =
            {
              (Grid.cfg g) with
              Dsm_sim.Config.nprocs = 8;
              net_drop = drop;
              net_dup = (if faulty then 0.01 else 0.0);
              net_jitter_us = (if faulty then 50.0 else 0.0);
              net_seed = 1;
            }
          in
          let r =
            Option.get (Grid.get g ~cfg row (Grid.Tmk (Grid.deepest row, true)))
          in
          let s = r.A.stats in
          Format.fprintf ppf "%-12s %6.2f %12.0f %8d %8d %8d %8d@."
            row.Grid.name drop r.A.time_us s.Stats.dropped s.Stats.timeouts
            s.Stats.retransmits s.Stats.duplicates)
        [ 0.0; 0.01; 0.05 ])
    [ "jacobi"; "fft3d"; "gauss"; "is" ];
  rule ppf 78

(* Availability vs overhead: what k-replicated homes cost when nothing
   fails, and what a crash plus recovery costs on top. Every row's final
   shared memory must be bit-identical to the unreplicated baseline —
   the table would be meaningless if fault tolerance changed results. *)
let availability ppf g =
  Format.fprintf ppf
    "@.Availability: replicated homes and crash recovery (hlrc, 8 \
     processors, small sets, best level; crash rows: p1 down at 20ms for \
     10ms, checkpoints every 2 epochs)@.";
  rule ppf 100;
  Format.fprintf ppf "%-12s %-10s %12s %6s %9s %12s %6s %6s %6s %7s@."
    "Application" "config" "time(us)" "slow" "msgs" "bytes" "qwrite"
    "qread" "ckpt" "digest";
  rule ppf 100;
  let crash = [ (1, 20000.0, 10000.0) ] in
  let configs =
    [
      ("k=1", 1, 0, []);
      ("k=3", 3, 2, []);
      ("k=3+crash", 3, 2, crash);
      ("k=5+crash", 5, 2, crash);
    ]
  in
  List.iter
    (fun app ->
      let row = Grid.kernel app ~size:"small" in
      let name = row.Grid.name in
      let baseline = ref None in
      List.iter
        (fun (label, replicas, ckpt_every, crash) ->
          let cfg =
            {
              (Grid.cfg g) with
              Dsm_sim.Config.nprocs = 8;
              backend = Dsm_sim.Config.Hlrc;
              replicas;
              ckpt_every;
              crash;
            }
          in
          let r =
            Option.get
              (Grid.get g ~cfg ~digest:true row
                 (Grid.Tmk (Grid.deepest row, true)))
          in
          let base_time, base_digest =
            match !baseline with
            | None ->
                baseline := Some (r.A.time_us, r.A.digest);
                (r.A.time_us, r.A.digest)
            | Some b -> b
          in
          if r.A.digest <> base_digest then
            failwith (name ^ ": digest diverged under " ^ label);
          if crash <> [] && r.A.stats.Stats.crashes = 0 then
            failwith (name ^ ": scheduled crash never executed");
          let s = r.A.stats in
          Format.fprintf ppf
            "%-12s %-10s %12.0f %6.2f %9d %12d %6d %6d %6d %7s@." name label
            r.A.time_us
            (r.A.time_us /. base_time)
            s.Stats.messages s.Stats.bytes s.Stats.quorum_writes
            s.Stats.quorum_reads s.Stats.ckpts "=")
        configs)
    [ "jacobi"; "fft3d"; "gauss"; "is" ];
  rule ppf 100

(* The sharded key-value/session cache: a latency-bound workload (the
   six kernels are throughput-bound), so the table reports tail latency
   percentiles and per-operation traffic instead of speedups. The
   object-granularity rows are the paper's false-sharing remedy at
   allocation granularity: packed 64-byte objects share pages, so at
   page granularity every foreign update to a page-mate invalidates the
   page and a hot-key skew turns that into fetch traffic; per-object
   staleness tracking skips those fetches. The page rows are the
   control, the PVMe rows the hand-coded message-passing bound. *)
let kv ppf g =
  let module Config = Dsm_sim.Config in
  let module Kv = Dsm_apps.Kv in
  let pct arr q =
    let n = Array.length arr in
    if n = 0 then 0.0
    else arr.(min (n - 1) (int_of_float (q *. float_of_int (n - 1) +. 0.5)))
  in
  let cfg = { (Grid.cfg g) with Config.nprocs = 8 } in
  Format.fprintf ppf
    "@.KV session cache: tail latency and per-operation traffic@.";
  Format.fprintf ppf
    "(open-loop sessions, 8 processors, small set, async fetch; object vs \
     page store granularity; pvm = hand-coded message-passing delegation)@.";
  rule ppf 88;
  Format.fprintf ppf "%-8s %-7s %-8s %9s %9s %9s %8s %9s %8s@." "mix" "gran"
    "backend" "p50(us)" "p95(us)" "p99(us)" "msg/op" "B/op" "objskip";
  rule ppf 88;
  let lat_cols ppf (r : A.result) =
    let lats = Option.value ~default:[||] r.A.latencies_us in
    let per x = float_of_int x /. float_of_int (max 1 r.A.nops) in
    Format.fprintf ppf "%9.0f %9.0f %9.0f %8.1f %9.0f" (pct lats 0.50)
      (pct lats 0.95) (pct lats 0.99)
      (per r.A.stats.Stats.messages)
      (per r.A.stats.Stats.bytes)
  in
  let tmk mix (granularity, gname) backend =
    Option.get
      (Grid.run g (module Kv) ~cfg:{ cfg with Config.backend }
         ~size:("small", Kv.small)
         ~behavior:
           (mix ^ "/" ^ gname, { Kv.default_behavior with Kv.mix; granularity })
         (Grid.Tmk (A.Base, true)))
  in
  let object_ = (Dsm_tmk.Tmk.Alloc.Object, "object")
  and page = (Dsm_tmk.Tmk.Alloc.Page, "page") in
  List.iter
    (fun mix ->
      List.iter
        (fun gran ->
          List.iter
            (fun (backend, bname) ->
              let r = tmk mix gran backend in
              Format.fprintf ppf "%-8s %-7s %-8s %a %8d@." mix (snd gran) bname
                lat_cols r r.A.stats.Stats.obj_skips)
            Grid.backends)
        [ object_; page ];
      let r =
        Option.get
          (Grid.run g (module Kv) ~cfg ~size:("small", Kv.small)
             ~behavior:(mix, { Kv.default_behavior with Kv.mix })
             Grid.Pvm)
      in
      Format.fprintf ppf "%-8s %-7s %-8s %a %8s@." mix "-" "pvm" lat_cols r "-")
    [ "read90"; "write90" ];
  rule ppf 88;
  (* the point of the object granularity: under the write-heavy skewed
     mix it must shed messages relative to the page-granular control *)
  let messages gran = (tmk "write90" gran Config.Lrc).A.stats.Stats.messages in
  let m_obj = messages object_ and m_page = messages page in
  if m_obj >= m_page then
    failwith "kv: object granularity did not reduce messages vs page";
  Format.fprintf ppf
    "false sharing (write90, lrc): %d msgs at page granularity, %d at \
     object granularity (-%.0f%%)@."
    m_page m_obj
    (pct_reduction m_page m_obj);
  (* checker coverage: one traced object-granularity run must replay
     cleanly through the LRC invariant checker, with skips exercised; the
     trace is the run's side output, so the run is not a grid row *)
  let sink = Dsm_trace.Sink.create ~nprocs:cfg.Config.nprocs () in
  let r =
    Kv.tmk ~trace:sink cfg ~size:Kv.tiny ~behavior:Kv.default_behavior
      ~level:A.Base ~async:true
  in
  Grid.check
    {
      Grid.app = Kv.name;
      size = "tiny";
      behavior = "";
      cfg;
      system = Grid.Tmk (A.Base, true);
      digest = false;
    }
    r;
  let violations = Dsm_trace.Check.run_sink sink in
  if violations <> [] then failwith "kv: traced run violates LRC invariants";
  if r.A.stats.Stats.obj_skips = 0 then
    failwith "kv: traced run exercised no object skips";
  Format.fprintf ppf
    "checker: traced tiny run clean (0 violations, %d object skips)@."
    r.A.stats.Stats.obj_skips;
  rule ppf 88

(* {1 Platform microbenchmarks (Section 5)} *)

let micro ppf g =
  let module Cluster = Dsm_sim.Cluster in
  let cfg = Grid.cfg g in
  Format.fprintf ppf
    "@.Platform microbenchmarks (Section 5), simulated vs published SP/2@.";
  rule ppf 66;
  (* minimum roundtrip: empty rpc *)
  let c = Cluster.create cfg in
  Cluster.rpc c ~src:0 ~dst:1 ~req_bytes:0 ~resp_bytes:0 ~service:0.0;
  let roundtrip = Cluster.time c 0 in
  (* free remote lock acquisition *)
  let sys = Dsm_tmk.Tmk.make cfg in
  let lock_time = ref 0.0 in
  Dsm_tmk.Tmk.run sys (fun t ->
      if Dsm_tmk.Tmk.pid t = 1 then begin
        Dsm_tmk.Tmk.lock_acquire t 0;
        lock_time := Dsm_tmk.Tmk.time t;
        Dsm_tmk.Tmk.lock_release t 0
      end);
  (* 8-processor barrier: client-side time of the first barrier (the run
     appends the implicit exit barrier, which must not be counted) *)
  let sys2 = Dsm_tmk.Tmk.make cfg in
  let barrier_box = ref 0.0 in
  Dsm_tmk.Tmk.run sys2 (fun t ->
      Dsm_tmk.Tmk.barrier t;
      if Dsm_tmk.Tmk.pid t = 1 then barrier_box := Dsm_tmk.Tmk.time t);
  let barrier_time = !barrier_box in
  Format.fprintf ppf "%-44s %8.0f %8s@." "minimum roundtrip (us)" roundtrip
    "365";
  Format.fprintf ppf "%-44s %8.0f %8s@." "free remote lock acquisition (us)"
    !lock_time "427";
  Format.fprintf ppf "%-44s %8.0f %8s@."
    (Printf.sprintf "%d-processor barrier (us)" cfg.Dsm_sim.Config.nprocs)
    barrier_time "893";
  (* memory-management cost curve *)
  List.iter
    (fun pages ->
      let c = Cluster.create cfg in
      c.Cluster.pages_in_use <- pages;
      Cluster.mm_op c 0 ~npages:1;
      Format.fprintf ppf "%-44s %8.0f %8s@."
        (Printf.sprintf "fault/mprotect cost, %d pages in use (us)" pages)
        (Cluster.time c 0) "18-800")
    [ 100; 500; 2000 ];
  rule ppf 66
