(* Workload runner behind BENCHMARK.json.

     bash dsmbench/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
     dune exec dsmbench/main.exe -- run --workload W [--passes N] [--out F] ...
     dune exec dsmbench/main.exe -- compare A.tsv B.tsv
     dune exec dsmbench/main.exe -- manifest > BENCHMARK.json
     dune exec dsmbench/main.exe -- smoke BENCHMARK.json

   The system has two clocks. Virtual metrics (speedups, latencies, message
   counts) are what the simulated SP/2 pays; the simulator is
   deterministic, so they repeat bit for bit and their bounds are exact.
   Host metrics (set-up, seconds per pass, heap) are what the simulator
   costs to run, and carry noise bounds.

   One invocation runs one workload in one process on one OCaml domain:
   an untimed warm-up pass fills the applications' memoized sequential
   references (its wall time is [setup_s]), then timed passes run until
   [--seconds] have elapsed. Every pass re-runs every job through the
   public [Workload.S] entry points, never through the memoizing
   [Harness.Runset], so no pass is free. Every result is checked against
   the sequential reference ([max_err]) and against the warm-up pass
   (bit-identical virtual outcome).

   [--trace 1] instead produces the per-layer numbers: it pairs an
   untraced pass with a pass under [Dsm_prof.Prof] in which every DSM job
   carries a [Dsm_trace.Sink], replays each sink through the invariant
   checker, and asserts that the traced outcome is bit-identical to the
   untraced one. *)

module A = Dsm_apps.App_common
module Config = Dsm_sim.Config
module Stats = Dsm_sim.Stats
module Kv = Dsm_apps.Kv
module Sink = Dsm_trace.Sink
module Event = Dsm_trace.Event
module Prof = Dsm_prof.Prof

module type W = Dsm_apps.Workload.S

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

(* {1 Statistics} *)

(* Python's [statistics.quantiles xs ~n:4] (its default "exclusive"
   method), so the quartiles printed here match those that Python
   tooling computes from the same values. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

let geomean xs =
  exp
    (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
    /. float_of_int (List.length xs))

(* nearest-rank percentile of an ascending array *)
let percentile sorted q =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* {1 Jobs and workloads} *)

(* [Base] is the uncompiled TreadMarks program, [Opt] the deepest
   compiler level with asynchronous fetch (the paper's Opt-Tmk), [Pvm]
   the hand-coded message-passing baseline. *)
type role = Base | Opt | Pvm

type job = {
  label : string;
  app : string;  (** pairs a DSM job with the PVMe job of its app *)
  role : role;
  seq_us : float;  (** virtual uniprocessor time *)
  nprocs : int;
  sink : bool;  (** the traced pass attaches a trace sink *)
  last_due_us : float option;
      (** open-loop workloads: the virtual time the last session is due *)
  run : trace:Sink.t option -> digest:bool -> A.result;
}

let dsm_job (type s b) (module W : W with type size = s and type behavior = b)
    ~app ~role ?(sink = true) ?(tag = "") cfg ~(size : s) ~(behavior : b)
    ~level ~async =
  let tag = if tag = "" then A.opt_level_name level else tag in
  {
    label = app ^ "/" ^ tag;
    app;
    role;
    seq_us = W.seq_time_us size;
    nprocs = cfg.Config.nprocs;
    sink;
    last_due_us = None;
    run =
      (fun ~trace ~digest ->
        W.tmk ?trace ~digest cfg ~size ~behavior ~level ~async);
  }

let pvm_job (type s b) (module W : W with type size = s and type behavior = b)
    ~app cfg ~(size : s) ~(behavior : b) =
  {
    label = app ^ "/pvm";
    app;
    role = Pvm;
    seq_us = W.seq_time_us size;
    nprocs = cfg.Config.nprocs;
    sink = false;
    last_due_us = None;
    run = (fun ~trace:_ ~digest:_ -> W.pvm cfg ~size ~behavior);
  }

type workload = {
  name : string;
  why : string;
  jobs : tiny:bool -> job list;
  ladder : Kv.behavior option;
      (** open-loop workloads: the KV behavior whose offered-rate ladder
          gives [max_rate_ops] *)
}

let last_level levels = List.fold_left (fun _ l -> l) A.Base levels

(* The smoke test's tiny size keeps the three cheapest kernels. *)
let kernel_apps ~tiny =
  if tiny then
    List.filter
      (fun (app, _) -> List.mem app [ "fft3d"; "is"; "mgs" ])
      Dsm_apps.Registry.kernels
  else Dsm_apps.Registry.kernels

let kernels ~tiny =
  let cfg = { Config.default with nprocs = (if tiny then 4 else 8) } in
  List.concat_map
    (fun (app, m) ->
      let module W = (val m : W) in
      let size = List.assoc (if tiny then "small" else "large") W.sizes in
      let behavior = W.default_behavior in
      let deepest = last_level W.levels in
      [
        dsm_job (module W) ~app ~role:Base cfg ~size ~behavior ~level:A.Base
          ~async:false;
        dsm_job (module W) ~app ~role:Opt cfg ~size ~behavior ~level:deepest
          ~async:true;
        pvm_job (module W) ~app cfg ~size ~behavior;
      ])
    (kernel_apps ~tiny)

let protocols ~tiny =
  let cfg = { Config.default with nprocs = (if tiny then 4 else 8) } in
  List.concat_map
    (fun (app, m) ->
      let module W = (val m : W) in
      let size = List.assoc "small" W.sizes in
      let behavior = W.default_behavior in
      List.map
        (fun backend ->
          dsm_job (module W) ~app ~role:Base
            ~tag:(Config.backend_name backend)
            { cfg with Config.backend }
            ~size ~behavior ~level:A.Base ~async:false)
        Config.[ Lrc; Hlrc; Inval; Adaptive ]
      @ [ pvm_job (module W) ~app cfg ~size ~behavior ])
    (kernel_apps ~tiny)

(* The 64-processor parameters of [Experiments.scaling]. Gauss runs
   untraced in the traced pass: its 64-processor trace does not fit in
   an 8 GB host. *)
let scale64 ~tiny =
  let module J = Dsm_apps.Jacobi in
  let module I = Dsm_apps.Is in
  let module G = Dsm_apps.Gauss in
  let cfg = { Config.default with nprocs = (if tiny then 8 else 64) } in
  let pair (type s) (module W : W with type size = s and type behavior = unit)
      ~app ?sink (size : s) =
    [
      dsm_job (module W) ~app ~role:Base ?sink cfg ~size ~behavior:()
        ~level:A.Base ~async:false;
      pvm_job (module W) ~app cfg ~size ~behavior:();
    ]
  in
  pair (module J) ~app:"jacobi"
    (if tiny then J.small else { J.large with m = 1024; iters = 5 })
  @ pair (module I) ~app:"is" (if tiny then I.small else { I.large with reps = 2 })
  @ pair (module G) ~app:"gauss" ~sink:false (if tiny then G.small else G.large)

(* Open-loop KV: 8 clients, each with its next session due every
   [arrival_us] of virtual time whether or not the previous one is done. *)
let kv_size ~tiny = if tiny then Kv.tiny else Kv.large

let kv_cfg = Config.default

let kv_behavior mix = { Kv.default_behavior with Kv.mix }

let last_due ~size ~behavior =
  let e = Kv.effective size behavior ~nprocs:kv_cfg.Config.nprocs in
  float_of_int (e.Kv.e_per_proc - 1) *. size.Kv.arrival_us

let kv ~mix ~arrival_us ~tiny =
  let size = { (kv_size ~tiny) with Kv.arrival_us } in
  let behavior = kv_behavior mix in
  [
    {
      (dsm_job (module Kv) ~app:"kv" ~role:Base kv_cfg ~size ~behavior
         ~level:A.Base ~async:false)
      with
      last_due_us = Some (last_due ~size ~behavior);
    };
    pvm_job (module Kv) ~app:"kv" kv_cfg ~size ~behavior;
  ]

let workloads =
  [
    {
      name = "kernels";
      why =
        "Fig. 5 / Table 2: six kernels at large, 8 procs, lrc, Base vs \
         Opt-Tmk vs PVMe; per-element Shm access and the engine dominate \
         host time";
      jobs = kernels;
      ladder = None;
    };
    {
      name = "protocols";
      why =
        "six kernels at small, Base, under lrc, hlrc, inval and adaptive: \
         the only workload that runs the three other coherence backends";
      jobs = protocols;
      ladder = None;
    };
    {
      name = "scale64";
      why =
        "Jacobi, IS and Gauss at 64 procs: write-notice and barrier work \
         grows with nprocs^2, so the protocol layer dominates host time";
      jobs = scale64;
      ladder = None;
    };
    {
      name = "kv-read90";
      why =
        "open-loop KV at 4000 ops/s offered, read90, skew 0.99, object \
         granularity: lock and validate layers under a read-mostly load";
      jobs = kv ~mix:"read90" ~arrival_us:2000.0;
      ladder = Some (kv_behavior "read90");
    };
    {
      name = "kv-write90";
      why =
        "open-loop KV at 2000 ops/s offered, write90: the same layers under \
         updates, with diff creation and the object-skip path active";
      jobs = kv ~mix:"write90" ~arrival_us:4000.0;
      ladder = Some (kv_behavior "write90");
    };
  ]

(* {1 Metrics} *)

type metric = {
  name : string;
  unit_ : string;
  higher : bool;  (** higher is better *)
  bound : float;  (** end-to-end only: allowed worsening, share of median *)
}

(* Virtual metrics are deterministic: the bound only absorbs float
   rounding in the benchmark's own arithmetic. *)
let exact = 1e-6

let e2e name unit_ ~higher bound = { name; unit_; higher; bound }
let layer name unit_ ~higher = { name; unit_; higher; bound = 0.0 }

let end_to_end =
  [
    e2e "setup_s" "s" ~higher:false 0.25;
    e2e "host_s" "s" ~higher:false 0.25;
    e2e "peak_heap_mb" "MB" ~higher:false 0.05;
    e2e "speedup" "x" ~higher:true exact;
    e2e "speedup_base" "x" ~higher:true exact;
    e2e "mp_gap" "x" ~higher:false exact;
    e2e "p50_us" "virtual-us" ~higher:false exact;
    e2e "p99_us" "virtual-us" ~higher:false exact;
    e2e "p999_us" "virtual-us" ~higher:false exact;
    e2e "max_rate_ops" "ops/s" ~higher:true exact;
    e2e "msgs_per_op" "msgs" ~higher:false exact;
  ]

(* Host-profile rows of the traced pass: [Prof] section -> metric stem. *)
let prof_rows =
  Prof.
    [
      (Engine, "sim.engine");
      (Protocol, "tmk.protocol");
      (Sync, "tmk.sync");
      (Diff_create, "mem.diff_create");
      (Diff_apply, "mem.diff_apply");
      (Net, "net.host");
    ]

let per_layer =
  let count n = layer n "count" ~higher:false in
  [
    count "net.msgs";
    layer "net.bytes" "bytes" ~higher:false;
    count "tmk.faults";
    count "tmk.diffs_applied";
    layer "mem.diff_bytes" "bytes" ~higher:false;
    count "tmk.validates";
    layer "tmk.obj_skips" "count" ~higher:true;
    layer "tmk.obj_skip_ratio" "ratio" ~higher:true;
    count "tmk.home_fetches";
    count "tmk.home_flushes";
    count "tmk.invals";
    count "tmk.proto_switches";
    count "tmk.lock_acquires";
    count "tmk.barriers";
    layer "tmk.fetch_us" "virtual-us" ~higher:false;
    layer "tmk.lock_wait_us" "virtual-us" ~higher:false;
    layer "tmk.barrier_wait_us" "virtual-us" ~higher:false;
    layer "apps.kv_lag_us" "virtual-us" ~higher:false;
  ]
  @ List.map (fun (_, stem) -> layer (stem ^ "_s") "s" ~higher:false) prof_rows
  @ List.map
      (fun (_, stem) -> layer (stem ^ "_alloc_mw") "Mwords" ~higher:false)
      prof_rows
  @ [
      count "trace.events";
      count "trace.dropped";
      layer "trace.check_s" "s" ~higher:false;
      layer "trace.overhead" "x" ~higher:false;
    ]

let is_dsm (j, _) = j.role <> Pvm
let sum f rs = List.fold_left (fun acc x -> acc + f x) 0 rs

(* The virtual end-to-end metrics of one pass. Each has one definition
   for every workload; an "operation" is a KV session on the open-loop
   workloads and a whole DSM run (job) on the closed batches. *)
let virtual_metrics results ~max_rate =
  let dsm = List.filter is_dsm results in
  let of_role role = List.filter (fun (j, _) -> j.role = role) dsm in
  let headline = match of_role Opt with [] -> of_role Base | opt -> opt in
  let speedup (j, (r : A.result)) = j.seq_us /. r.A.time_us in
  let pvm_time app =
    let _, (r : A.result) =
      List.find (fun (j, _) -> j.role = Pvm && j.app = app) results
    in
    r.A.time_us
  in
  let lat =
    match List.filter_map (fun (_, r) -> r.A.latencies_us) dsm with
    | [] -> Array.of_list (List.map (fun (_, r) -> r.A.time_us) dsm)
    | ls -> Array.concat ls
  in
  Array.sort compare lat;
  let ops = sum (fun (_, r) -> max 1 r.A.nops) dsm in
  let msgs = sum (fun (_, r) -> r.A.stats.Stats.messages) dsm in
  let busy_s =
    List.fold_left (fun acc (_, r) -> acc +. r.A.time_us) 0.0 dsm /. 1e6
  in
  [
    ("speedup", geomean (List.map speedup headline));
    ("speedup_base", geomean (List.map speedup (of_role Base)));
    ( "mp_gap",
      geomean
        (List.map (fun (j, r) -> r.A.time_us /. pvm_time j.app) headline) );
    ("p50_us", percentile lat 0.50);
    ("p99_us", percentile lat 0.99);
    ("p999_us", percentile lat 0.999);
    ( "max_rate_ops",
      (* a closed batch sustains exactly its completion rate *)
      match max_rate with
      | Some r -> r
      | None -> float_of_int (List.length dsm) /. busy_s );
    ("msgs_per_op", float_of_int msgs /. float_of_int ops);
  ]

(* {1 Host-time calibration}

   A shared host's speed drifts by 5-20% over tens of seconds (measured
   on a 2-vCPU VM with co-tenants), more than a host-time regression
   bound may allow, and a median over more passes cannot remove a drift
   that lasts the whole run. A fixed loop timed between jobs slows down by nearly
   the same factor, so host times are reported in calibrated seconds:
   each job's wall seconds times [calib_ref_s] over the mean of the
   loop's times just before and just after it. A host that runs the loop
   in exactly [calib_ref_s] (the 2-vCPU VM the baseline was
   measured on) reports plain wall seconds; the raw wall times are
   printed alongside. *)

let calib_ref_s = 0.013
let calib_ints = Array.make (1 lsl 15) 0

(* off the OCaml heap, so it does not count in [peak_heap_mb] *)
let calib_floats =
  Bigarray.Array1.init Bigarray.float64 Bigarray.c_layout (1 lsl 22)
    (fun _ -> 0.0)

(* The three kinds of work the simulator does, in roughly equal parts:
   random updates of an L2-resident table, a stream through 32 MB, and
   short-lived allocation. Interleaved with simulator jobs on the 2-vCPU
   VM, the three together cut the spread of 12-second medians of job
   time from 5.5-5.9% to 1.4-1.8%, better than any one of them alone. *)
let calibration_loop () =
  let n = Array.length calib_ints in
  let x = ref 1 in
  for i = 1 to 1 lsl 21 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = !x land (n - 1) in
    calib_ints.(j) <- calib_ints.(j) + i
  done;
  for i = 0 to Bigarray.Array1.dim calib_floats - 1 do
    calib_floats.{i} <- (calib_floats.{i} *. 0.5) +. 1.0
  done;
  let l = ref [] in
  for i = 1 to 1 lsl 21 do
    l := i :: !l;
    (* short lists: a minor collection promotes almost nothing, so the
       loop leaves no garbage in the major heap ([peak_heap_mb]) *)
    if i land 63 = 0 then l := []
  done;
  ignore (Sys.opaque_identity !l)

let calib_sample () = fst (time calibration_loop)

(* Runs every job once; returns the results, the jobs' own wall seconds
   (calibration excluded) and the same in calibrated seconds. *)
let run_pass jobs =
  let rec go before acc wall cal = function
    | [] -> (List.rev acc, wall, cal)
    | j :: rest ->
        let t, r = time (fun () -> j.run ~trace:None ~digest:false) in
        let after = calib_sample () in
        let speed = calib_ref_s /. ((before +. after) /. 2.0) in
        go after ((j, r) :: acc) (wall +. t) (cal +. (t *. speed)) rest
  in
  go (calib_sample ()) [] 0.0 0.0 jobs

(* {1 Checks} *)

(* Progress and diagnostic lines; the smoke test turns them off. *)
let quiet = ref false

let say fmt =
  if !quiet then Format.ifprintf Format.std_formatter fmt
  else Format.printf fmt

let tolerance = 1e-6

type tally = { mutable attempted : int; mutable failed : int }

let fail tally fmt =
  tally.failed <- tally.failed + 1;
  say ("FAIL " ^^ fmt ^^ "@.")

let check_result tally j (r : A.result) =
  tally.attempted <- tally.attempted + 1;
  if not (r.A.max_err <= tolerance) then
    fail tally "%s: max error %g above %g" j.label r.A.max_err tolerance

(* Virtual outcome equality: everything a run reports except the
   optional digest, which only some passes ask for. *)
let same (a : A.result) (b : A.result) =
  { a with A.digest = "" } = { b with A.digest = "" }

(* A timed pass whose every outcome is checked against the warm-up; only
   its (wall, calibrated) seconds are kept, so that the number of passes
   does not change [peak_heap_mb]. *)
let checked_pass tally reference =
  let results, wall, cal = run_pass (List.map fst reference) in
  List.iter2
    (fun (j, r) (_, r0) ->
      check_result tally j r;
      if not (same r r0) then
        fail tally "%s: virtual outcome differs from the warm-up pass" j.label)
    results reference;
  (wall, cal)

(* {1 Offered-rate ladder (open-loop workloads)} *)

let ladder_rates =
  [ 1000; 1200; 1400; 1700; 2000; 2400; 2800; 3400; 4000; 4800; 5600; 6400;
    7200; 8000 ]

let limit_us = 25_000.0

(* The highest offered rate, in ops/s, before the first rate whose p99
   latency or generator lag exceeds 25 ms (0 if the lowest rate does). *)
let max_rate tally ~tiny behavior =
  let size = kv_size ~tiny in
  let rec climb best = function
    | [] -> best
    | rate :: rest ->
        let arrival_us =
          float_of_int (kv_cfg.Config.nprocs * 1_000_000) /. float_of_int rate
        in
        let size = { size with Kv.arrival_us } in
        let j =
          {
            (dsm_job (module Kv) ~app:"kv" ~role:Base
               ~tag:(Printf.sprintf "ladder-%d" rate)
               kv_cfg ~size ~behavior ~level:A.Base ~async:false)
            with
            last_due_us = Some (last_due ~size ~behavior);
          }
        in
        let r = j.run ~trace:None ~digest:false in
        check_result tally j r;
        let p99 = percentile (Option.get r.A.latencies_us) 0.99 in
        let lag = r.A.time_us -. Option.get j.last_due_us in
        let ok = p99 <= limit_us && lag <= limit_us in
        say "  ladder %5d ops/s: p99 %9.0f us, lag %9.0f us  %s@."
          rate p99 lag
          (if ok then "ok" else "over the 25 ms limit");
        if ok then climb (float_of_int rate) rest else best
  in
  climb 0.0 ladder_rates

(* {1 The traced pass} *)

(* Virtual waits in one sink, summed over processors: fault service
   (a fetching Page_fault to the Fetch_done of the same page), lock
   wait (Lock_request to Lock_grant) and barrier wait (arrive to
   depart). Each pair is emitted by the same processor. *)
let waits sink =
  let fetch = ref 0.0 and lock = ref 0.0 and barrier = ref 0.0 in
  for p = 0 to Sink.nprocs sink - 1 do
    let faults = Hashtbl.create 64 and requests = Hashtbl.create 8 in
    let arrived = ref None in
    let close tbl key acc (e : Event.t) =
      match Hashtbl.find_opt tbl key with
      | Some t0 ->
          acc := !acc +. (e.Event.time -. t0);
          Hashtbl.remove tbl key
      | None -> ()
    in
    List.iter
      (fun (e : Event.t) ->
        match e.Event.kind with
        | Event.Page_fault { page; fetch = true; _ } ->
            Hashtbl.replace faults page e.Event.time
        | Event.Fetch_done { page; _ } -> close faults page fetch e
        | Event.Lock_request { lock = l } ->
            Hashtbl.replace requests l e.Event.time
        | Event.Lock_grant { lock = l; _ } -> close requests l lock e
        | Event.Barrier_arrive _ -> arrived := Some e.Event.time
        | Event.Barrier_depart _ ->
            Option.iter (fun t0 -> barrier := !barrier +. (e.Event.time -. t0)) !arrived;
            arrived := None
        | _ -> ())
      (Sink.proc_events sink p)
  done;
  (!fetch, !lock, !barrier)

(* Per-processor ring size, grown until the job's trace fits whole
   (the checker refuses an incomplete trace). Remembered per job so a
   later traced pass does not repeat the search. *)
let capacities : (string, int) Hashtbl.t = Hashtbl.create 16

let run_traced j ~digest =
  let rec go capacity =
    let sink = Sink.create ~capacity ~nprocs:j.nprocs () in
    let r = j.run ~trace:(Some sink) ~digest in
    if Sink.dropped sink > 0 then go (capacity * 4)
    else begin
      Hashtbl.replace capacities j.label capacity;
      (sink, r)
    end
  in
  go
    (Option.value ~default:Sink.default_capacity
       (Hashtbl.find_opt capacities j.label))

type traced = {
  wall_s : float;
  events : int;
  dropped : int;
  check_s : float;
  fetch_us : float;
  lock_wait_us : float;
  barrier_wait_us : float;
  prof : (string * float) list;
}

(* DSM jobs of one app and role differ only in their backend, so their
   final shared memories must agree; only such groups pay for digests. *)
let wants_digest jobs j =
  j.role <> Pvm
  && List.length (List.filter (fun k -> k.app = j.app && k.role = j.role) jobs)
     > 1

let traced_pass tally reference =
  let jobs = List.map fst reference in
  let events = ref 0 and dropped = ref 0 and check_s = ref 0.0 in
  let fetch = ref 0.0 and lock = ref 0.0 and barrier = ref 0.0 in
  let digests = Hashtbl.create 16 in
  Prof.enable ();
  let wall_s, () =
    time (fun () ->
        List.iter
          (fun (j, r0) ->
            let digest = wants_digest jobs j in
            let r =
              if j.sink then begin
                let sink, r = run_traced j ~digest in
                let dt, violations =
                  time (fun () -> Dsm_trace.Check.run_sink sink)
                in
                check_s := !check_s +. dt;
                say "  traced %-14s %9d events, ring %7d/proc, checker %.3f s@."
                  j.label (Sink.emitted sink) (Sink.capacity sink) dt;
                events := !events + Sink.emitted sink;
                dropped := !dropped + Sink.dropped sink;
                let f, l, b = waits sink in
                fetch := !fetch +. f;
                lock := !lock +. l;
                barrier := !barrier +. b;
                if violations <> [] then
                  fail tally "%s: %d checker violations, first: %a" j.label
                    (List.length violations) Dsm_trace.Check.pp_violation
                    (List.hd violations);
                r
              end
              else j.run ~trace:None ~digest
            in
            check_result tally j r;
            if not (same r r0) then
              fail tally "%s: traced outcome differs from the untraced pass"
                j.label;
            if digest then
              Hashtbl.replace digests (j.app, j.role)
                (r.A.digest
                :: Option.value ~default:[]
                     (Hashtbl.find_opt digests (j.app, j.role))))
          reference)
  in
  Prof.disable ();
  Hashtbl.iter
    (fun (app, _) ds ->
      if List.sort_uniq compare ds <> [ List.hd ds ] then
        fail tally "%s: backends disagree on the final memory digest" app)
    digests;
  let rows, _ = Prof.report () in
  let row section =
    List.find_opt
      (fun (r : Prof.row) -> r.Prof.name = Prof.section_name section)
      rows
  in
  let prof =
    List.concat_map
      (fun (section, stem) ->
        let self_s, alloc =
          match row section with
          | Some r -> (r.Prof.self_s, r.Prof.alloc_mw)
          | None -> (0.0, 0.0)
        in
        [ (stem ^ "_s", self_s); (stem ^ "_alloc_mw", alloc) ])
      prof_rows
  in
  {
    wall_s;
    events = !events;
    dropped = !dropped;
    check_s = !check_s;
    fetch_us = !fetch;
    lock_wait_us = !lock;
    barrier_wait_us = !barrier;
    prof;
  }

let layer_metrics reference ~untraced ~(traced : traced list) =
  let dsm = List.filter is_dsm reference in
  let stat f = float_of_int (sum (fun (_, r) -> f r.A.stats) dsm) in
  let med f = median (List.map f traced) in
  let validates = stat (fun s -> s.Stats.validates) in
  let obj_skips = stat (fun s -> s.Stats.obj_skips) in
  [
    ("net.msgs", stat (fun s -> s.Stats.messages));
    ("net.bytes", stat (fun s -> s.Stats.bytes));
    ("tmk.faults", stat (fun s -> s.Stats.segv));
    ("tmk.diffs_applied", stat (fun s -> s.Stats.diffs_applied));
    ("mem.diff_bytes", stat (fun s -> s.Stats.diff_bytes_applied));
    ("tmk.validates", validates);
    ("tmk.obj_skips", obj_skips);
    ( "tmk.obj_skip_ratio",
      if validates > 0.0 then obj_skips /. validates else 0.0 );
    ("tmk.home_fetches", stat (fun s -> s.Stats.home_fetches));
    ("tmk.home_flushes", stat (fun s -> s.Stats.home_flushes));
    ("tmk.invals", stat (fun s -> s.Stats.invals));
    ("tmk.proto_switches", stat (fun s -> s.Stats.proto_switches));
    ("tmk.lock_acquires", stat (fun s -> s.Stats.lock_acquires));
    ("tmk.barriers", stat (fun s -> s.Stats.barriers));
    ("tmk.fetch_us", med (fun t -> t.fetch_us));
    ("tmk.lock_wait_us", med (fun t -> t.lock_wait_us));
    ("tmk.barrier_wait_us", med (fun t -> t.barrier_wait_us));
    ( "apps.kv_lag_us",
      (* closed batches have no arrival schedule to fall behind *)
      List.fold_left
        (fun acc (j, r) ->
          match j.last_due_us with
          | Some due -> Float.max acc (r.A.time_us -. due)
          | None -> acc)
        0.0 dsm );
  ]
  @ List.map
      (fun (name, _) -> (name, med (fun t -> List.assoc name t.prof)))
      (List.hd traced).prof
  @ [
      ("trace.events", med (fun t -> float_of_int t.events));
      ("trace.dropped", med (fun t -> float_of_int t.dropped));
      ("trace.check_s", med (fun t -> t.check_s));
      ("trace.overhead", med (fun t -> t.wall_s) /. median untraced);
    ]

(* {1 One invocation} *)

type outcome = {
  tally : tally;
  metrics : (metric * float) list;  (** in table order *)
}

let in_table table values =
  List.map
    (fun m ->
      match List.assoc_opt m.name values with
      | Some v -> (m, v)
      | None -> failwith ("runner computed no value for metric " ^ m.name))
    table

(* Timed passes until [budget] has elapsed (at least one), or exactly
   [n] passes. *)
let repeat budget f =
  let t0 = Unix.gettimeofday () in
  let rec go acc =
    let acc = f () :: acc in
    match budget with
    | `Passes n when List.length acc < n -> go acc
    | `Seconds s when Unix.gettimeofday () -. t0 < s -> go acc
    | _ -> List.rev acc
  in
  go []

let run_workload ?(tiny = false) w ~budget ~traced =
  let tally = { attempted = 0; failed = 0 } in
  let reference, setup_wall, setup_s = run_pass (w.jobs ~tiny) in
  List.iter (fun (j, r) -> check_result tally j r) reference;
  say "  warm-up pass: %.3f s wall, %.3f s calibrated, %d jobs@." setup_wall
    setup_s (List.length reference);
  let metrics =
    if traced then begin
      let pairs =
        repeat budget (fun () ->
            let untraced = checked_pass tally reference in
            (fst untraced, traced_pass tally reference))
      in
      let t = snd (List.hd pairs) in
      say "  traced pass: %.3f s, %d events, checker %.3f s, peak heap %.0f MB@."
        t.wall_s t.events t.check_s
        (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1e6);
      in_table per_layer
        (layer_metrics reference ~untraced:(List.map fst pairs)
           ~traced:(List.map snd pairs))
    end
    else begin
      let max_rate =
        Option.map (max_rate tally ~tiny) w.ladder
      in
      let passes = repeat budget (fun () -> checked_pass tally reference) in
      let w1, wm, w3 = quartiles (List.map fst passes) in
      let q1, med, q3 = quartiles (List.map snd passes) in
      say "  timed passes: %d, wall median %.4f s (q1 %.4f, q3 %.4f), \
           calibrated median %.4f s (q1 %.4f, q3 %.4f)@."
        (List.length passes) wm w1 w3 med q1 q3;
      let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
      in_table end_to_end
        ([
           ("setup_s", setup_s);
           ("host_s", med);
           ( "peak_heap_mb",
             float_of_int (heap_words * (Sys.word_size / 8)) /. 1e6 );
         ]
        @ virtual_metrics reference ~max_rate)
    end
  in
  { tally; metrics }

(* {1 Output} *)

(* Exactly-round-tripping float; JSON has no inf/nan. *)
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let result_line o =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.tally.failed = 0) o.tally.attempted o.tally.failed
    (String.concat ", "
       (List.map
          (fun (m, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (num v) m.unit_)
          o.metrics))

let tsv_lines o ~workload ~seed =
  List.map
    (fun (m, v) ->
      Printf.sprintf "%s\t%d\t%s\t%s\t%s\n" workload seed m.name (num v)
        m.unit_)
    o.metrics

(* {1 BENCHMARK.json} *)

let run_seconds = 12

let manifest () =
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  let list items f =
    List.iteri
      (fun i x ->
        add "    %s%s\n" (f x) (if i = List.length items - 1 then "" else ","))
      items
  in
  add "{\n";
  add "  \"command\": [\"bash\", \"dsmbench/run.sh\"],\n";
  add "  \"paths\": [\"dsmbench\"],\n";
  add "  \"run_seconds\": %d,\n" run_seconds;
  add "  \"workloads\": [\n";
  list workloads (fun w ->
      Printf.sprintf "{\"name\": \"%s\", \"why\": \"%s\"}" w.name w.why);
  add "  ],\n  \"end_to_end\": [\n";
  let better m = if m.higher then "higher" else "lower" in
  list end_to_end (fun m ->
      Printf.sprintf
        "{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\", \"bound\": %g}"
        m.name m.unit_ (better m) m.bound);
  add "  ],\n  \"per_layer\": [\n";
  list per_layer (fun m ->
      Printf.sprintf "{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}"
        m.name m.unit_ (better m));
  add "  ]\n}\n";
  Buffer.contents b

(* {1 compare} *)

(* Load [--out] files: one "workload seed metric value unit" line per
   metric per run. *)
let load_set path =
  let ic = open_in path in
  let rows = ref [] in
  (try
     while true do
       match String.split_on_char '\t' (input_line ic) with
       | [ w; _seed; m; v; _unit ] -> (
           match float_of_string_opt v with
           | Some v -> rows := ((w, m), v) :: !rows
           | None -> ())
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  !rows

let compare_sets a b =
  let a = load_set a and b = load_set b in
  let values set key =
    List.filter_map (fun (k, v) -> if k = key then Some v else None) set
  in
  Format.printf "%-11s %-13s %12s %12s %12s %12s %12s %12s  %s@." "workload"
    "metric" "A median" "A q1" "A q3" "B median" "B q1" "B q3" "verdict";
  let worse = ref 0 in
  List.iter
    (fun (w : workload) ->
      List.iter
        (fun (m : metric) ->
          match (values a (w.name, m.name), values b (w.name, m.name)) with
          | [], _ | _, [] -> ()
          | va, vb ->
              let a1, am, a3 = quartiles va and b1, bm, b3 = quartiles vb in
              let rel x = if am = 0.0 then 0.0 else x /. Float.abs am in
              let spread =
                Float.max (rel (a3 -. a1))
                  (if bm = 0.0 then 0.0 else (b3 -. b1) /. Float.abs bm)
              in
              (* positive: B is worse than A, as a share of A's median *)
              let worsening = rel (if m.higher then am -. bm else bm -. am) in
              let better_than x y = if m.higher then x > y else x < y in
              let all_better =
                List.for_all (fun y -> List.for_all (better_than y) va) vb
              in
              let verdict =
                if spread > m.bound && not all_better then "unresolved"
                else if worsening > m.bound then "worse"
                else if worsening < -.m.bound then "better"
                else "same"
              in
              if verdict = "worse" then incr worse;
              Format.printf "%-11s %-13s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g  %s@."
                w.name m.name am a1 a3 bm b1 b3 verdict)
        end_to_end)
    workloads;
  if !worse > 0 then exit 1

(* {1 smoke} *)

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec at i = i + k <= n && (String.sub s i k = sub || at (i + 1)) in
  at 0

(* Every workload at a tiny size, untraced and traced: every metric of
   BENCHMARK.json must be printed with its unit, and nothing may fail.
   BENCHMARK.json itself must be the manifest this runner prints. *)
let smoke path =
  quiet := true;
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let problems = ref [] in
  let problem fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  if text <> manifest () then
    problem "%s differs from `main.exe manifest`" path;
  List.iter
    (fun (w : workload) ->
      List.iter
        (fun (traced, table) ->
          let o = run_workload ~tiny:true w ~budget:(`Passes 1) ~traced in
          let line = result_line o in
          if o.tally.failed > 0 then
            problem "%s (trace %b): %d of %d runs failed" w.name traced
              o.tally.failed o.tally.attempted;
          List.iter
            (fun (m : metric) ->
              let printed =
                List.exists
                  (fun (m', v) ->
                    m'.name = m.name
                    && Float.is_finite v
                    && (traced || v > 0.0)
                    && contains line
                         (Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
                            m.name (num v) m.unit_))
                  o.metrics
              in
              if not printed then
                problem "%s (trace %b): metric %s missing, zero or without unit %s"
                  w.name traced m.name m.unit_)
            table)
        [ (false, end_to_end); (true, per_layer) ])
    workloads;
  match !problems with
  | [] -> Format.printf "dsmbench smoke: %d workloads ok@." (List.length workloads)
  | ps ->
      List.iter (Format.printf "FAIL %s@.") (List.rev ps);
      exit 1

(* {1 Command line} *)

let usage () =
  prerr_endline
    "usage: main.exe run --workload W [--seed N] [--seconds S | --passes N] \
     [--trace 0|1] [--out F]\n\
    \       main.exe compare A.tsv B.tsv\n\
    \       main.exe manifest\n\
    \       main.exe smoke BENCHMARK.json";
  exit 2

let die fmt = Format.kasprintf (fun s -> prerr_endline ("error: " ^ s); exit 2) fmt

let workload_names =
  String.concat ", " (List.map (fun (w : workload) -> w.name) workloads)

let parse_run args =
  let rec pairs acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        pairs ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> die "unexpected argument %s" a
  in
  let opts = pairs [] args in
  List.iter
    (fun (k, _) ->
      if not (List.mem k [ "workload"; "seed"; "seconds"; "passes"; "trace"; "out" ])
      then die "unknown option --%s" k)
    opts;
  let int_opt k ~lo ~hi ~default =
    match List.assoc_opt k opts with
    | None -> default
    | Some v -> (
        match int_of_string_opt v with
        | Some n when n >= lo && n <= hi -> n
        | _ -> die "--%s %s: expected an integer in [%d, %d]" k v lo hi)
  in
  let w =
    match List.assoc_opt "workload" opts with
    | None -> die "--workload is required (one of %s)" workload_names
    | Some name -> (
        match List.find_opt (fun (w : workload) -> w.name = name) workloads with
        | Some w -> w
        | None -> die "--workload %s: expected one of %s" name workload_names)
  in
  let seed = int_opt "seed" ~lo:min_int ~hi:max_int ~default:0 in
  let budget =
    if List.mem_assoc "passes" opts then
      `Passes (int_opt "passes" ~lo:1 ~hi:1000 ~default:1)
    else `Seconds (float_of_int (int_opt "seconds" ~lo:1 ~hi:3600 ~default:run_seconds))
  in
  let traced = int_opt "trace" ~lo:0 ~hi:1 ~default:0 = 1 in
  (w, seed, budget, traced, List.assoc_opt "out" opts)

let main () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args ->
      let w, seed, budget, traced, out = parse_run args in
      Format.printf "dsmbench %s: seed %d (recorded; the inputs do not use it)%s@."
        w.name seed (if traced then ", traced" else "");
      let o = run_workload w ~budget ~traced in
      List.iter
        (fun (m, v) -> Format.printf "  %-22s %16.6f %s@." m.name v m.unit_)
        o.metrics;
      Option.iter
        (fun path ->
          let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
          List.iter (output_string oc) (tsv_lines o ~workload:w.name ~seed);
          close_out oc)
        out;
      print_endline (result_line o)
  | [ "compare"; a; b ] -> compare_sets a b
  | [ "manifest" ] -> print_string (manifest ())
  | [ "smoke"; path ] -> smoke path
  | _ -> usage ()

let () = try main () with Sys_error e -> die "%s" e
