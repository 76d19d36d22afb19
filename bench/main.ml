(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (Tables 1 and 2, Figures 5, 6 and 7), plus the
   Section 5 platform microbenchmarks.

     dune exec bench/main.exe                 -- every experiment, scale-deep
                                                 included (~22 min, > 8 GB)
     dune exec bench/main.exe table1 fig5     -- the named experiments
     dune exec bench/main.exe bechamel micro  -- hot-primitive Bechamel runs
     dune exec bench/main.exe json [--quick] [--out F] [--against F]
                                              -- machine-readable trajectory

   Virtual times come from the simulator; they model the paper's 8-node IBM
   SP/2. The Bechamel mode instead measures the host wall-clock of the hot
   run-time primitives. The json mode writes a BENCH_<n>.json trajectory
   file (see {!Dsm_harness.Bench_log}) and, with [--against], gates on a
   committed baseline. *)

module Experiments = Dsm_harness.Experiments
module Grid = Dsm_harness.Grid
module Bench_log = Dsm_harness.Bench_log

let ppf = Format.std_formatter
let cfg = Dsm_sim.Config.default

(* The one grid every experiment reads its rows from: a row is charged to
   the first experiment that asks for it. Each json round starts a fresh
   grid, so every round pays the same costs. *)
let grid = ref (Grid.create cfg)

(* Every experiment, in run order. [name] is the json entry name, so it is
   part of the trajectory format; [aliases] are accepted on the command
   line; [quick] experiments make up [json --quick]. *)
type experiment = {
  name : string;
  aliases : string list;
  quick : bool;
  view : Format.formatter -> Grid.t -> unit;
}

let experiments =
  let e ?(aliases = []) ?(quick = true) name view =
    { name; aliases; quick; view }
  in
  [
    e "micro" Experiments.micro;
    e "table1" ~quick:false Experiments.table1;
    e "table2" ~quick:false Experiments.table2;
    e "figure5" ~aliases:[ "fig5" ] ~quick:false Experiments.figure5;
    e "figure6" ~aliases:[ "fig6" ] ~quick:false Experiments.figure6;
    e "figure7" ~aliases:[ "fig7" ] ~quick:false Experiments.figure7;
    e "scaling" ~aliases:[ "scale" ] Experiments.scaling;
    (* 256/1024-processor tiers: the barrier write-notice exchange costs the
       host O(nprocs^2), too slow for the quick CI gate *)
    e "scaling_deep" ~aliases:[ "scale-deep"; "scaling-deep" ] ~quick:false
      Experiments.scaling_deep;
    e "ablation" Experiments.ablation;
    e "faults" Experiments.faults;
    e "availability" Experiments.availability;
    e "protocols" ~aliases:[ "matrix" ] Experiments.protocol_matrix;
    e "kv" Experiments.kv;
  ]

let run x ppf = x.view ppf !grid

(* Every name is resolved before any experiment runs; an unknown one exits
   2 naming the field and listing what is accepted. *)
let resolve names =
  let find name =
    List.find_opt (fun x -> x.name = name || List.mem name x.aliases) experiments
  in
  match List.find_opt (fun n -> find n = None) names with
  | None -> List.map (fun n -> Option.get (find n)) names
  | Some unknown ->
      let accepted =
        List.map
          (fun x ->
            match x.aliases with
            | [] -> x.name
            | aliases -> Printf.sprintf "%s (%s)" x.name (String.concat ", " aliases))
          experiments
      in
      Format.eprintf "bench: experiment: unknown name %S; accepted: %s@." unknown
        (String.concat ", " accepted);
      exit 2

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
            ignore (Dsm_mem.Diff.merge diff diff));
        quick "vc-merge" (fun () -> Dsm_tmk.Vc.merge vc_a vc_b);
        quick "vc-leq" (fun () -> ignore (Dsm_tmk.Vc.leq vc_a vc_b));
        quick "vc-copy+sum" (fun () ->
            ignore (Dsm_tmk.Vc.sum (Dsm_tmk.Vc.copy vc_a)));
        quick "range-pages" (fun () ->
            ignore (Dsm_rsd.Range.pages ~page_size ranges));
        quick "ilog-64-adds+scan+touch" (fun () ->
            let l = Dsm_tmk.Ilog.create () in
            for s = 1 to 64 do
              Dsm_tmk.Ilog.add l ~seq:s [ s; s + 1 ]
            done;
            ignore (Dsm_tmk.Ilog.count_since l 0);
            Dsm_tmk.Ilog.iter_desc l ~lo:0 ~hi:64 (fun _ _ _ _ -> ());
            for page = 1 to 65 do
              ignore (Dsm_tmk.Ilog.newest_touch l page ~upto:32)
            done);
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
   buffer formatter, and emit BENCH_<n>.json. Experiments share one grid,
   so each entry carries its incremental host cost and the sum matches a
   plain run of every experiment. *)
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
     simulated output whether or not the self-profiler is enabled. The
     ablation runs Gauss, IS and MGS through the protocol, so the spans the
     profiler opens there are exercised. *)
  let digest_of f =
    let buf = Buffer.create 1024 in
    let bppf = Format.formatter_of_buffer buf in
    f bppf;
    Format.pp_print_flush bppf ();
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  let ablation ppf = Experiments.ablation ppf (Grid.create cfg) in
  let d_off = digest_of ablation in
  (* the profiled run doubles as the per-subsystem profile of one
     representative workload, embedded in the trajectory so a PR's profile
     shift is machine-diffable too *)
  Dsm_prof.Prof.enable ();
  let d_on = digest_of ablation in
  let profile_json = Dsm_prof.Prof.to_json () in
  Dsm_prof.Prof.disable ();
  let measure_once round =
    let log =
      Bench_log.create ~pr ~label:(if quick then "quick" else "full") ~quick
    in
    Bench_log.set_prof_invariant log (d_off = d_on);
    Bench_log.set_profile log profile_json;
    let m x =
      ignore (Bench_log.measure log ~name:x.name (run x));
      Format.printf "  [%d/%d] %-10s done@." round repeat x.name
    in
    grid := Grid.create cfg;
    List.iter (fun x -> if x.quick || not quick then m x) experiments;
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
  | [] -> List.iter (fun x -> run x ppf) experiments
  | [ "bechamel"; "micro" ] | [ "bechamel-micro" ] -> bechamel_micro ()
  | "json" :: rest -> json_mode rest
  | names -> List.iter (fun x -> run x ppf) (resolve names)
