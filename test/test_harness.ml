(* The experiment harness and the ablation switches. *)

module Runset = Dsm_harness.Runset
module Experiments = Dsm_harness.Experiments
module Config = Dsm_sim.Config
open Dsm_apps.App_common

let null =
  Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let cfg4 = { Config.default with Config.nprocs = 4 }

let test_runset_shape () =
  let apps = Runset.all cfg4 in
  Alcotest.(check int) "12 rows (6 apps x 2 sizes)" 12 (List.length apps);
  let names = List.map (fun (a : Runset.sized_app) -> a.Runset.app_name) apps in
  List.iter
    (fun n -> Alcotest.(check bool) n true (List.mem n names))
    [ "Jacobi"; "3D-FFT"; "Shallow"; "IS"; "Gauss"; "MGS" ];
  let is_rows =
    List.filter (fun (a : Runset.sized_app) -> a.Runset.app_name = "IS") apps
  in
  List.iter
    (fun (a : Runset.sized_app) ->
      Alcotest.(check bool) "IS has no xhpf" false a.Runset.has_xhpf;
      Alcotest.(check bool) "IS xhpf run is None" true
        (a.Runset.run Runset.Xhpf = None))
    is_rows

let test_run_caching () =
  let apps = Runset.all cfg4 in
  let jac =
    List.find
      (fun (a : Runset.sized_app) ->
        a.Runset.app_name = "Jacobi" && a.Runset.size_label = "small")
      apps
  in
  let r1 = Runset.base jac
  and r2 = Runset.base jac in
  Alcotest.(check bool) "memoized (same result)" true (r1 == r2)

let test_best_opt_beats_base () =
  let apps = Runset.all cfg4 in
  List.iter
    (fun (a : Runset.sized_app) ->
      if a.Runset.size_label = "small" then begin
        let b = Runset.base a
        and o = Runset.best_opt a in
        Alcotest.(check bool)
          (a.Runset.app_name ^ ": optimization does not hurt")
          true
          (o.time_us <= b.time_us)
      end)
    apps

let test_micro_prints () = Experiments.micro null Config.default

let test_ablation_supersede () =
  (* turning supersede pruning off must increase IS's data volume *)
  let on =
    Dsm_apps.Is.tmk cfg4 ~size:Dsm_apps.Is.small ~behavior:() ~level:Cons_elim
      ~async:true
  in
  let off =
    Dsm_apps.Is.tmk
      { cfg4 with Config.enable_supersede = false }
      ~size:Dsm_apps.Is.small ~behavior:() ~level:Cons_elim ~async:true
  in
  Alcotest.(check (float 1e-6)) "still correct" 0.0 off.max_err;
  Alcotest.(check bool) "more data without pruning" true
    (off.stats.Dsm_sim.Stats.bytes > on.stats.Dsm_sim.Stats.bytes)

let test_ablation_bcast () =
  (* without broadcast detection, no broadcasts happen and results hold *)
  let off =
    Dsm_apps.Gauss.tmk
      { cfg4 with Config.enable_bcast = false }
      ~size:Dsm_apps.Gauss.small ~behavior:() ~level:Sync_merge ~async:false
  in
  Alcotest.(check (float 1e-6)) "still correct" 0.0 off.max_err;
  Alcotest.(check int) "no broadcasts" 0 off.stats.Dsm_sim.Stats.broadcasts

let test_ablation_queueing () =
  (* disabling hot-spot queueing only changes time, never results *)
  let off =
    Dsm_apps.Mgs.tmk
      { cfg4 with Config.enable_hotspot_queueing = false }
      ~size:Dsm_apps.Mgs.small ~behavior:() ~level:Base ~async:false
  in
  Alcotest.(check (float 1e-6)) "still correct" 0.0 off.max_err

let test_determinism () =
  (* identical runs produce identical virtual times and statistics *)
  let run () =
    Dsm_apps.Jacobi.tmk cfg4 ~size:Dsm_apps.Jacobi.small ~behavior:()
      ~level:Push_opt ~async:true
  in
  let r1 = run () in
  let r2 = run () in
  Alcotest.(check (float 0.0)) "same time" r1.time_us r2.time_us;
  Alcotest.(check int) "same messages" r1.stats.Dsm_sim.Stats.messages
    r2.stats.Dsm_sim.Stats.messages;
  Alcotest.(check int) "same bytes" r1.stats.Dsm_sim.Stats.bytes
    r2.stats.Dsm_sim.Stats.bytes

let contains text sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length text && (String.sub text i n = sub || go (i + 1))
  in
  go 0

(* [--help=plain] for both CLIs renders without cmdliner doc-markup
   errors (an illegal escape in a doc string is only reported when the
   help page is rendered, on stderr). The executables are test deps. *)
let test_help_renders () =
  List.iter
    (fun exe ->
      let out = Filename.temp_file "help" ".txt" in
      let cmd =
        Printf.sprintf
          "TERM=dumb PAGER=cat MANPAGER=cat %s --help=plain > %s 2>&1"
          (Filename.quote exe) (Filename.quote out)
      in
      Alcotest.(check int) (exe ^ " --help exits 0") 0 (Sys.command cmd);
      let text = In_channel.with_open_bin out In_channel.input_all in
      Sys.remove out;
      Alcotest.(check bool) (exe ^ ": rendered NAME section") true
        (contains text "NAME");
      Alcotest.(check bool) (exe ^ ": no cmdliner error") false
        (contains text "cmdliner error"))
    [ "../bin/dsm_run.exe"; "../bin/dsm_lint.exe" ]

(* Levels are printed as comm-aggr/cons-elim/sync-merge but typed as
   aggr/cons/merge: both spellings select the level, and an unknown name
   is rejected with the choices listed. *)
let test_level_spellings () =
  let module Cli = Dsm_harness.Cli in
  List.iter
    (fun (short, l) ->
      let long = Dsm_apps.App_common.opt_level_name l in
      Alcotest.(check bool) (short ^ " selects its level") true
        (Cli.find_level short = Some l);
      Alcotest.(check bool) (long ^ " selects its level") true
        (Cli.find_level long = Some l))
    Cli.levels;
  Alcotest.(check bool) "typo rejected" true (Cli.find_level "sync-mrg" = None);
  let out = Filename.temp_file "level" ".txt" in
  let code =
    Sys.command
      (Printf.sprintf "../bin/dsm_run.exe -a jacobi -l sync-mrg > %s 2>&1"
         (Filename.quote out))
  in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  Alcotest.(check int) "cli error exit" 124 code;
  Alcotest.(check bool) "error lists the choices" true
    (contains text (Cli.level_error "sync-mrg"))

(* A message-passing version whose block partition leaves a processor
   without a column is a usage error naming --procs, not an uncaught
   exception (cmdliner's exit 125); so is a processor count below one,
   for every version, ahead of the fault-plan checks that range over
   it. *)
let test_procs_error ~app ~version ~procs () =
  let out = Filename.temp_file "procs" ".txt" in
  let code =
    Sys.command
      (Printf.sprintf
         "../bin/dsm_run.exe --app %s --size small --version %s --procs=%d \
          > %s 2>&1"
         app version procs (Filename.quote out))
  in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  Alcotest.(check int) "cli error exit" 124 code;
  Alcotest.(check bool) "error names --procs" true (contains text "--procs");
  Alcotest.(check bool) "no fault-plan error" false (contains text "fault");
  Alcotest.(check int) "one-line error" 1
    (List.length (String.split_on_char '\n' (String.trim text)))

let tests =
  [
    Alcotest.test_case "cli: --help renders cleanly" `Quick test_help_renders;
    Alcotest.test_case "cli: level spellings" `Quick test_level_spellings;
    Alcotest.test_case "cli: jacobi mp procs limit" `Quick
      (test_procs_error ~app:"jacobi" ~version:"pvm" ~procs:511);
    Alcotest.test_case "cli: shallow mp procs limit" `Quick
      (test_procs_error ~app:"shallow" ~version:"pvm" ~procs:44);
    Alcotest.test_case "cli: zero procs" `Quick
      (test_procs_error ~app:"jacobi" ~version:"tmk" ~procs:0);
    Alcotest.test_case "cli: negative procs" `Quick
      (test_procs_error ~app:"is" ~version:"pvm" ~procs:(-3));
    Alcotest.test_case "runset shape" `Slow test_runset_shape;
    Alcotest.test_case "run caching" `Slow test_run_caching;
    Alcotest.test_case "best opt beats base" `Slow test_best_opt_beats_base;
    Alcotest.test_case "micro experiment prints" `Quick test_micro_prints;
    Alcotest.test_case "ablation: supersede" `Slow test_ablation_supersede;
    Alcotest.test_case "ablation: broadcast" `Slow test_ablation_bcast;
    Alcotest.test_case "ablation: queueing" `Slow test_ablation_queueing;
    Alcotest.test_case "determinism" `Slow test_determinism;
  ]
