(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (Tables 1 and 2, Figures 5, 6 and 7), plus the
   Section 5 platform microbenchmarks.

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe table1          -- one experiment
     dune exec bench/main.exe bechamel        -- wall-clock Bechamel runs
     dune exec bench/main.exe bechamel micro  -- hot-primitive Bechamel runs
     dune exec bench/main.exe json [--quick] [--out F] [--against F]
                                              -- machine-readable trajectory

   Virtual times come from the simulator; they model the paper's 8-node IBM
   SP/2. The Bechamel modes instead measure host wall-clock: of each
   experiment's simulation, and of the hot run-time primitives. The json
   mode writes a BENCH_<n>.json trajectory file (see {!Dsm_harness.Bench_log})
   and, with [--against], gates on a committed baseline. *)

module Experiments = Dsm_harness.Experiments
module Runset = Dsm_harness.Runset
module Bench_log = Dsm_harness.Bench_log

let ppf = Format.std_formatter

let with_apps =
  let cache = ref None in
  fun f ->
    let apps =
      match !cache with
      | Some apps -> apps
      | None ->
          let apps = Runset.all Dsm_sim.Config.default in
          cache := Some apps;
          apps
    in
    f apps

let run_one = function
  | "table1" -> with_apps (Experiments.table1 ppf)
  | "table2" -> with_apps (Experiments.table2 ppf)
  | "fig5" | "figure5" -> with_apps (Experiments.figure5 ppf)
  | "fig6" | "figure6" -> with_apps (Experiments.figure6 ppf)
  | "fig7" | "figure7" -> with_apps (Experiments.figure7 ppf)
  | "micro" -> Experiments.micro ppf Dsm_sim.Config.default
  | "scale" | "scaling" -> Experiments.scaling ppf Dsm_sim.Config.default
  | "scale-deep" | "scaling-deep" ->
      Experiments.scaling_deep ppf Dsm_sim.Config.default
  | "ablation" -> Experiments.ablation ppf Dsm_sim.Config.default
  | "faults" -> Experiments.faults ppf Dsm_sim.Config.default
  | "availability" -> Experiments.availability ppf Dsm_sim.Config.default
  | "backends" -> Experiments.backends ppf Dsm_sim.Config.default
  | "protocols" | "matrix" ->
      Experiments.protocol_matrix ppf Dsm_sim.Config.default
  | "kv" -> Experiments.kv ppf Dsm_sim.Config.default
  | name -> failwith ("unknown experiment: " ^ name)

let run_all () =
  Experiments.micro ppf Dsm_sim.Config.default;
  with_apps (fun apps ->
      Experiments.table1 ppf apps;
      Experiments.table2 ppf apps;
      Experiments.figure5 ppf apps;
      Experiments.figure6 ppf apps;
      Experiments.figure7 ppf apps);
  Experiments.scaling ppf Dsm_sim.Config.default;
  Experiments.scaling_deep ppf Dsm_sim.Config.default;
  Experiments.ablation ppf Dsm_sim.Config.default;
  Experiments.faults ppf Dsm_sim.Config.default;
  Experiments.availability ppf Dsm_sim.Config.default;
  Experiments.backends ppf Dsm_sim.Config.default;
  Experiments.protocol_matrix ppf Dsm_sim.Config.default;
  Experiments.kv ppf Dsm_sim.Config.default

(* Bechamel wall-clock benchmarks: one Test.make per table/figure. Each run
   re-executes the experiment's simulations from scratch (no caching), so
   the estimate reflects the simulator's own cost. *)
let bechamel () =
  let open Bechamel in
  let open Toolkit in
  let quick name f = Test.make ~name (Staged.stage f) in
  let null = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
  let mk_apps () = Runset.all Dsm_sim.Config.default in
  let tests =
    Test.make_grouped ~name:"paper-experiments"
      [
        quick "micro" (fun () -> Experiments.micro null Dsm_sim.Config.default);
        quick "table1" (fun () -> Experiments.table1 null (mk_apps ()));
        quick "table2" (fun () -> Experiments.table2 null (mk_apps ()));
        quick "figure5" (fun () -> Experiments.figure5 null (mk_apps ()));
        quick "figure6" (fun () -> Experiments.figure6 null (mk_apps ()));
        quick "figure7" (fun () -> Experiments.figure7 null (mk_apps ()));
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2 ~quota:(Time.second 30.0) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Format.printf "%-40s %14.0f ns/run@." name est
      | _ -> Format.printf "%-40s (no estimate)@." name)
    results

(* Bechamel over the hot run-time primitives the profiling work optimized:
   diff creation/application/merge, vector-clock operations, range-to-page
   conversion and the indexed write-notice log. These complement the
   per-experiment timings above with per-operation costs. *)
let bechamel_micro () =
  let open Bechamel in
  let open Toolkit in
  let quick name f = Test.make ~name (Staged.stage f) in
  let page_size = 4096 in
  let twin = Bytes.make page_size 'a' in
  let current = Bytes.copy twin in
  List.iter (fun off -> Bytes.fill current off 16 'b') [ 256; 1600; 3900 ];
  let diff = Dsm_mem.Diff.create ~twin ~current in
  let dst = Bytes.copy twin in
  let vc_a = Dsm_tmk.Vc.create 8 and vc_b = Dsm_tmk.Vc.create 8 in
  for q = 0 to 7 do
    Dsm_tmk.Vc.set vc_a q (q * 3);
    Dsm_tmk.Vc.set vc_b q (24 - q)
  done;
  let ranges = [ (0, 512); (8192, 12288); (40960, 41984) ] in
  let tests =
    Test.make_grouped ~name:"primitives"
      [
        quick "diff-create" (fun () ->
            ignore (Dsm_mem.Diff.create ~twin ~current));
        quick "diff-apply" (fun () -> Dsm_mem.Diff.apply diff dst);
        quick "diff-merge" (fun () ->
            ignore (Dsm_mem.Diff.merge diff diff ~page_size));
        quick "vc-merge" (fun () -> Dsm_tmk.Vc.merge vc_a vc_b);
        quick "vc-leq" (fun () -> ignore (Dsm_tmk.Vc.leq vc_a vc_b));
        quick "vc-copy+sum" (fun () ->
            ignore (Dsm_tmk.Vc.sum (Dsm_tmk.Vc.copy vc_a)));
        quick "range-pages" (fun () ->
            ignore (Dsm_rsd.Range.pages ~page_size ranges));
        quick "ilog-64-adds+scan" (fun () ->
            let l = Dsm_tmk.Ilog.create () in
            for s = 1 to 64 do
              Dsm_tmk.Ilog.add l ~seq:s [ s; s + 1 ]
            done;
            ignore (Dsm_tmk.Ilog.count_since l 0);
            Dsm_tmk.Ilog.iter_desc l ~lo:0 ~hi:64 (fun _ _ -> ()));
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Format.printf "%-40s %14.1f ns/run@." name est
      | _ -> Format.printf "%-40s (no estimate)@." name)
    results

(* Machine-readable trajectory: run the experiments, timing each against a
   buffer formatter, and emit BENCH_<n>.json. Experiments share the lazily
   memoized runset, so each entry carries its incremental host cost and the
   sum matches a plain [run_all]. *)
let json_mode args =
  let quick = List.mem "--quick" args in
  let rec keyed k = function
    | a :: b :: _ when a = k -> Some b
    | _ :: tl -> keyed k tl
    | [] -> None
  in
  (* malformed options exit 2 naming the field, before any work runs *)
  let bad field msg =
    Format.eprintf "bench json: %s: %s@." field msg;
    exit 2
  in
  let out, pr =
    match keyed "--out" args with
    | None -> bad "--out" "required (BENCH_<n>.json)"
    | Some out -> (
        (* the trajectory labels itself with the number in its file name *)
        let base = Filename.basename out in
        match Scanf.sscanf_opt base "BENCH_%u.json%!" Fun.id with
        | Some pr -> (out, pr)
        | None ->
            bad "--out" (Printf.sprintf "%S is not named BENCH_<n>.json" base))
  in
  let against = keyed "--against" args in
  let tolerance =
    match keyed "--tolerance" args with
    | None -> 0.20
    | Some s -> (
        match float_of_string_opt s with
        | Some t when Float.is_finite t && t >= 0.0 -> t
        | _ -> bad "--tolerance" (Printf.sprintf "%S is not a fraction >= 0" s))
  in
  let repeat =
    match keyed "--repeat" args with
    | None -> if quick then 2 else 1
    | Some s -> (
        match int_of_string_opt s with
        | Some r when r >= 1 -> r
        | _ -> bad "--repeat" (Printf.sprintf "%S is not a count >= 1" s))
  in
  (* profiling on/off invariance: the same experiment must produce the same
     simulated output whether or not the self-profiler is enabled *)
  let digest_of f =
    let buf = Buffer.create 1024 in
    let bppf = Format.formatter_of_buffer buf in
    f bppf;
    Format.pp_print_flush bppf ();
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  let micro ppf = Experiments.micro ppf Dsm_sim.Config.default in
  let d_off = digest_of micro in
  Dsm_prof.Prof.enable ();
  let d_on = digest_of micro in
  Dsm_prof.Prof.disable ();
  (* per-subsystem profile of one representative workload, embedded in the
     trajectory so a PR's profile shift is machine-diffable too *)
  Dsm_prof.Prof.enable ();
  ignore
    (digest_of (fun ppf -> Experiments.ablation ppf Dsm_sim.Config.default));
  let profile_json = Dsm_prof.Prof.to_json () in
  Dsm_prof.Prof.disable ();
  let measure_once round =
    let log =
      Bench_log.create ~pr ~label:(if quick then "quick" else "full") ~quick
    in
    Bench_log.set_prof_invariant log (d_off = d_on);
    Bench_log.set_profile log profile_json;
    let m name f =
      ignore (Bench_log.measure log ~name f);
      Format.printf "  [%d/%d] %-10s done@." round repeat name
    in
    m "micro" micro;
    if not quick then begin
      (* building the runset runs the uniprocessor sims eagerly; everything
         else is memoized and charged to the first experiment that asks *)
      let apps = ref [] in
      m "runset" (fun ppf ->
          apps := Runset.all Dsm_sim.Config.default;
          Format.fprintf ppf "built %d sized-app rows@." (List.length !apps));
      let apps = !apps in
      m "table1" (fun ppf -> Experiments.table1 ppf apps);
      m "table2" (fun ppf -> Experiments.table2 ppf apps);
      m "figure5" (fun ppf -> Experiments.figure5 ppf apps);
      m "figure6" (fun ppf -> Experiments.figure6 ppf apps);
      m "figure7" (fun ppf -> Experiments.figure7 ppf apps)
    end;
    m "scaling" (fun ppf -> Experiments.scaling ppf Dsm_sim.Config.default);
    if not quick then
      (* 256/1024-processor tiers: the barrier write-notice exchange costs
         the host O(nprocs^2), too slow for the quick CI gate *)
      m "scaling_deep" (fun ppf ->
          Experiments.scaling_deep ppf Dsm_sim.Config.default);
    m "ablation" (fun ppf -> Experiments.ablation ppf Dsm_sim.Config.default);
    m "faults" (fun ppf -> Experiments.faults ppf Dsm_sim.Config.default);
    m "availability" (fun ppf ->
        Experiments.availability ppf Dsm_sim.Config.default);
    m "backends" (fun ppf ->
        Experiments.backends ppf Dsm_sim.Config.default);
    m "protocols" (fun ppf ->
        Experiments.protocol_matrix ppf Dsm_sim.Config.default);
    m "kv" (fun ppf -> Experiments.kv ppf Dsm_sim.Config.default);
    log
  in
  Format.printf "bench json (%s set, best of %d):@."
    (if quick then "quick" else "full")
    repeat;
  let log = ref (measure_once 1) in
  for round = 2 to repeat do
    log := Bench_log.min_merge !log (measure_once round)
  done;
  let log = !log in
  Bench_log.write log ~path:out;
  Format.printf "wrote %s (total %.1f ms, prof-invariant %b)@." out
    (Bench_log.total_wall_ms log)
    (d_off = d_on);
  let ok_gate =
    match against with
    | None -> true
    | Some path ->
        let baseline = Bench_log.load ~path in
        Bench_log.compare_against Format.std_formatter ~baseline ~current:log
          ~tolerance
  in
  if d_off <> d_on then begin
    Format.printf "FAIL: enabling profiling changed simulated output@.";
    exit 1
  end;
  if not ok_gate then exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [] -> run_all ()
  | [ "bechamel" ] -> bechamel ()
  | [ "bechamel"; "micro" ] | [ "bechamel-micro" ] -> bechamel_micro ()
  | "json" :: rest -> json_mode rest
  | names -> List.iter run_one names
