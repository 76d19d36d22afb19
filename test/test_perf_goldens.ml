(* Optimization-safety goldens: the performance work (PR 3 and any later
   hot-path PR) may change host wall-clock and allocation only — never the
   simulated results. A fixed QCheck generator samples random
   app/size/procs/level/async (and a few faulty-network) configurations;
   every sampled run's simulated time, verification error and Stats
   counters are rendered to a line ([%h] for floats: exact, bit-identical
   or bust) and compared against [perf_goldens.expected], which was
   recorded from the seed implementation before the first optimisation
   pass.

   Regenerating (ONLY legitimate after a PR that intentionally changes the
   simulation — new cost model, protocol change — never for an
   optimisation PR):

     DSM_GOLDENS_OUT=$PWD/test/perf_goldens.expected dune test --force

   A trace-and-check pass over a subset additionally asserts that the
   sampled runs stay checker-clean and that enabling tracing does not
   perturb the simulated time. *)

module A = Dsm_apps.App_common
module Config = Dsm_sim.Config
module Stats = Dsm_sim.Stats

(* [gen_case] draws an index into this list, so the registry's order is
   part of the golden contract. *)
let apps = Dsm_apps.Registry.kernels

type case = {
  app : string;
  size : string;  (* "small" | "large" *)
  procs : int;
  level : A.opt_level;
  async : bool;
  drop : float;  (* 0.0 = reliable network *)
  seed : int;
}

(* Deterministic sampling: QCheck generators driven by a fixed-state PRNG.
   The sequence of draws is part of the golden contract — do not reorder. *)
let gen_case : case QCheck.Gen.t =
  let open QCheck.Gen in
  let* app_idx = int_bound (List.length apps - 1) in
  let app, (module App : Dsm_apps.Workload.S) = List.nth apps app_idx in
  let* size = frequency [ (4, return "small"); (1, return "large") ] in
  let* procs = oneofl [ 1; 2; 4; 8 ] in
  let* level = oneofl App.levels in
  let* async = bool in
  let* drop = frequency [ (5, return 0.0); (1, return 0.02) ] in
  return { app; size; procs; level; async; drop; seed = 1 }

let cases =
  let st = Random.State.make [| 0x5eed; 3 |] in
  List.init 22 (fun _ -> gen_case st)

let run_case ?trace c =
  let (module App : Dsm_apps.Workload.S) = List.assoc c.app apps in
  let size = List.assoc c.size App.sizes in
  let cfg =
    {
      Config.default with
      Config.nprocs = c.procs;
      net_drop = c.drop;
      net_dup = (if c.drop > 0.0 then 0.01 else 0.0);
      net_jitter_us = (if c.drop > 0.0 then 50.0 else 0.0);
      net_seed = c.seed;
    }
  in
  App.tmk ?trace cfg ~size ~behavior:App.default_behavior ~level:c.level
    ~async:c.async

let render_result (r : A.result) =
  let s = r.A.stats in
  Printf.sprintf
    "time=%h err=%h msgs=%d bytes=%d segv=%d mprot=%d twins=%d dc=%d da=%d \
     db=%d locks=%d bar=%d val=%d push=%d bcast=%d retx=%d tmo=%d drop=%d \
     dup=%d"
    r.A.time_us r.A.max_err s.Stats.messages s.Stats.bytes s.Stats.segv
    s.Stats.mprotects s.Stats.twins s.Stats.diffs_created s.Stats.diffs_applied
    s.Stats.diff_bytes_applied s.Stats.lock_acquires s.Stats.barriers
    s.Stats.validates s.Stats.pushes s.Stats.broadcasts s.Stats.retransmits
    s.Stats.timeouts s.Stats.dropped s.Stats.duplicates

let render c r =
  Printf.sprintf "%s %s procs=%d level=%s async=%b drop=%h | %s" c.app c.size
    c.procs
    (A.opt_level_name c.level)
    c.async c.drop (render_result r)

let golden_file = "perf_goldens.expected"

let read_lines file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* Results are computed once, at suite-construction time, from the cwd the
   runner starts in (alcotest may chdir later). *)
let actual = lazy (List.map (fun c -> (c, run_case c)) cases)

let write_goldens path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun (c, r) -> output_string oc (render c r ^ "\n"))
        (Lazy.force actual))

let test_goldens () =
  match Sys.getenv_opt "DSM_GOLDENS_OUT" with
  | Some path ->
      write_goldens path;
      Printf.printf "goldens written to %s\n" path
  | None ->
      let expected = read_lines golden_file in
      let got = List.map (fun (c, r) -> render c r) (Lazy.force actual) in
      Alcotest.(check int)
        "number of sampled configurations" (List.length expected)
        (List.length got);
      List.iteri
        (fun i (e, g) ->
          Alcotest.(check string) (Printf.sprintf "case %d" i) e g)
        (List.combine expected got)

(* {1 Backend goldens}

   The sampled cases above pin only the homeless protocol. This fixed list
   pins the other three backends, the home policies, replicated homes with
   a crash, a lossy network and the object-granularity KV cache; each line
   adds the per-protocol counters. Recorded to [perf_goldens_backends.expected]
   alongside the sampled goldens (same [DSM_GOLDENS_OUT] regeneration: the
   file is written next to the path given). *)

let backend_golden_file = "perf_goldens_backends.expected"

type bcase = { label : string; brun : unit -> A.result }

let kernel_case ?(policy = Config.Home_block) ?(replicas = 1) ?(ckpt_every = 0)
    ?(crash = []) ?(drop = 0.0) ?(tag = "") backend app ~deepest =
  let (module App : Dsm_apps.Workload.S) = List.assoc app apps in
  let level =
    if deepest then List.nth App.levels (List.length App.levels - 1) else A.Base
  in
  let cfg =
    {
      Config.default with
      Config.nprocs = 4;
      backend;
      home_policy = policy;
      replicas;
      ckpt_every;
      crash;
      net_drop = drop;
      net_dup = (if drop > 0.0 then 0.01 else 0.0);
      net_jitter_us = (if drop > 0.0 then 50.0 else 0.0);
      net_seed = 1;
    }
  in
  {
    label =
      Printf.sprintf "%s%s %s small procs=4 level=%s async=%b"
        (Config.backend_name backend) tag app (A.opt_level_name level) deepest;
    brun =
      (fun () ->
        App.tmk cfg
          ~size:(List.assoc "small" App.sizes)
          ~behavior:App.default_behavior ~level ~async:deepest);
  }

let kv_case backend =
  {
    label =
      Printf.sprintf "%s kv tiny procs=4 object async=true"
        (Config.backend_name backend);
    brun =
      (fun () ->
        Dsm_apps.Kv.tmk
          { Config.default with Config.nprocs = 4; backend }
          ~size:Dsm_apps.Kv.tiny ~behavior:Dsm_apps.Kv.default_behavior
          ~level:A.Base ~async:true);
  }

let backend_cases =
  List.concat_map
    (fun backend ->
      List.concat_map
        (fun (app, _) ->
          [ kernel_case backend app ~deepest:false;
            kernel_case backend app ~deepest:true ])
        apps)
    [ Config.Hlrc; Config.Inval; Config.Adaptive ]
  @ List.concat_map
      (fun app ->
        [
          kernel_case ~policy:Config.Home_cyclic ~tag:"/cyclic" Config.Hlrc app
            ~deepest:true;
          kernel_case ~policy:Config.Home_first_touch ~tag:"/first-touch"
            Config.Hlrc app ~deepest:true;
        ])
      [ "jacobi"; "is" ]
  @ [
      kernel_case ~replicas:3 ~ckpt_every:2 ~tag:"/r3" Config.Hlrc "jacobi"
        ~deepest:true;
      kernel_case ~replicas:3 ~ckpt_every:2
        ~crash:[ (1, 20000.0, 5000.0) ]
        ~tag:"/r3+crash" Config.Hlrc "jacobi" ~deepest:true;
      kernel_case ~drop:0.02 ~tag:"/drop0.02" Config.Hlrc "jacobi"
        ~deepest:true;
    ]
  @ List.map kv_case [ Config.Lrc; Config.Hlrc; Config.Inval; Config.Adaptive ]

let render_backend (r : A.result) =
  let s = r.A.stats in
  Printf.sprintf
    "%s hf=%d hfl=%d inv=%d dg=%d sw=%d os=%d qr=%d qw=%d crash=%d"
    (render_result r) s.Stats.home_fetches s.Stats.home_flushes s.Stats.invals
    s.Stats.downgrades s.Stats.proto_switches s.Stats.obj_skips
    s.Stats.quorum_reads s.Stats.quorum_writes s.Stats.crashes

let test_backend_goldens () =
  let got =
    List.map (fun c -> c.label ^ " | " ^ render_backend (c.brun ())) backend_cases
  in
  match Sys.getenv_opt "DSM_GOLDENS_OUT" with
  | Some path ->
      let out = Filename.concat (Filename.dirname path) backend_golden_file in
      let oc = open_out out in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> List.iter (fun l -> output_string oc (l ^ "\n")) got);
      Printf.printf "backend goldens written to %s\n" out
  | None ->
      let expected = read_lines backend_golden_file in
      Alcotest.(check int)
        "number of backend cases" (List.length expected) (List.length got);
      List.iter2 (fun e g -> Alcotest.(check string) e e g) expected got

(* Tracing must not perturb the simulation, and the sampled runs must be
   checker-clean (reliable-network cases only: fault recovery is checked
   separately by the net suite). *)
let test_traced_subset () =
  let subset =
    List.filteri (fun i _ -> i mod 5 = 0) cases
    |> List.filter (fun c -> c.drop = 0.0)
  in
  List.iter
    (fun c ->
      let plain = run_case c in
      let sink = Dsm_trace.Sink.create ~nprocs:c.procs () in
      let traced = run_case ~trace:sink c in
      if traced.A.time_us <> plain.A.time_us then
        Alcotest.failf "%s %s: tracing changed simulated time (%h vs %h)"
          c.app c.size traced.A.time_us plain.A.time_us;
      match Dsm_trace.Check.run_sink sink with
      | [] -> ()
      | vs ->
          Alcotest.failf "%s %s procs=%d level=%s: %d checker violations"
            c.app c.size c.procs
            (A.opt_level_name c.level)
            (List.length vs))
    subset

let tests =
  [
    Alcotest.test_case "simulated results match seed goldens" `Slow
      test_goldens;
    Alcotest.test_case "traced subset: invariant time + checker-clean" `Slow
      test_traced_subset;
    Alcotest.test_case "other backends match recorded goldens" `Slow
      test_backend_goldens;
  ]
