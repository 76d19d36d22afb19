(* Application integration tests: every program, every version, every
   applicable optimization level must reproduce the sequential reference
   exactly (the parallel codes perform the identical per-element operation
   sequences). Run at 4 processors on the small data sets to keep the suite
   fast. *)

open Dsm_apps.App_common

let cfg = { Dsm_sim.Config.default with Dsm_sim.Config.nprocs = 4 }

let check_app name (module A : Dsm_apps.Workload.KERNEL) =
  let params = A.small in
  List.iter
    (fun level ->
      List.iter
        (fun async ->
          let r = A.run_tmk cfg params ~level ~async in
          Alcotest.(check (float 1e-6))
            (Printf.sprintf "%s tmk %s %s" name (opt_level_name level)
               (if async then "async" else "sync"))
            0.0 r.max_err;
          Alcotest.(check bool)
            (Printf.sprintf "%s %s time positive" name (opt_level_name level))
            true (r.time_us > 0.0))
        [ false; true ])
    A.levels;
  let r = A.run_pvm cfg params in
  Alcotest.(check (float 1e-6)) (name ^ " pvm") 0.0 r.max_err;
  match A.run_xhpf with
  | Some f ->
      let r = f cfg params in
      Alcotest.(check (float 1e-6)) (name ^ " xhpf") 0.0 r.max_err
  | None -> ()

let test_speedups_sane (module A : Dsm_apps.Workload.KERNEL) () =
  (* parallel virtual time beats a processor count's worth of slowdown and
     never beats perfect speedup by more than rounding *)
  let params = A.small in
  let seq = A.seq_time_us params in
  let r = A.run_tmk cfg params ~level:Base ~async:false in
  let s = seq /. r.time_us in
  Alcotest.(check bool) "0.2 <= speedup <= nprocs" true
    (s >= 0.2 && s <= float_of_int cfg.Dsm_sim.Config.nprocs +. 0.01)

let test_opt_reduces_messages (module A : Dsm_apps.Workload.KERNEL) () =
  let params = A.small in
  let base = A.run_tmk cfg params ~level:Base ~async:false in
  let best_level = List.fold_left (fun _ l -> l) Base A.levels in
  let opt = A.run_tmk cfg params ~level:best_level ~async:true in
  Alcotest.(check bool) "fewer or equal messages" true
    (opt.stats.Dsm_sim.Stats.messages <= base.stats.Dsm_sim.Stats.messages)

let test_opt_reduces_faults (module A : Dsm_apps.Workload.KERNEL) () =
  let params = A.small in
  let base = A.run_tmk cfg params ~level:Base ~async:false in
  let best_level = List.fold_left (fun _ l -> l) Base A.levels in
  let opt = A.run_tmk cfg params ~level:best_level ~async:true in
  Alcotest.(check bool) "fewer faults" true
    (opt.stats.Dsm_sim.Stats.segv < base.stats.Dsm_sim.Stats.segv)

(* Demand-zero frames: a processor's memory follows the pages it touches.
   Under lrc every processor hears a write notice for every column, but
   Jacobi only reads its own block and the two neighbouring columns, so
   only those pages may hold a frame. Processor 0 is excluded: the
   verification pass reads the whole grid through it. *)
let test_jacobi_frames_follow_touches () =
  let nprocs = 16 in
  let cfg = { Dsm_sim.Config.default with Dsm_sim.Config.nprocs } in
  let prm = Dsm_apps.Jacobi.small in
  let m = prm.Dsm_apps.Jacobi.m in
  let inspect (sys : Dsm_tmk.Tmk.system) =
    let b =
      List.find
        (fun (a : Dsm_rsd.Section.array_info) -> a.name = "b")
        (Dsm_mem.Addr_space.arrays sys.space)
    in
    let page_of_col j = (b.base + (8 * j * m)) / sys.page_size in
    let last_page_of_col j = (b.base + (8 * (((j + 1) * m) - 1))) / sys.page_size in
    for p = 1 to nprocs - 1 do
      let lo, hi = Dsm_apps.Jacobi.bounds m nprocs p in
      let first = page_of_col (lo - 1)
      and last = last_page_of_col (hi + 1) in
      Alcotest.(check (list int))
        (Printf.sprintf "proc %d frames = pages of columns %d..%d" p (lo - 1)
           (hi + 1))
        (List.init (last - first + 1) (fun k -> first + k))
        (Dsm_mem.Page_table.frames sys.states.(p).pt)
    done
  in
  let r =
    Dsm_apps.Jacobi.run_tmk_inspect ~inspect cfg prm ~level:Base ~async:false
  in
  Alcotest.(check (float 1e-6)) "jacobi correct" 0.0 r.max_err

let apps : (string * (module Dsm_apps.Workload.KERNEL)) list =
  [
    ("jacobi", (module Dsm_apps.Jacobi));
    ("fft3d", (module Dsm_apps.Fft3d));
    ("shallow", (module Dsm_apps.Shallow));
    ("is", (module Dsm_apps.Is));
    ("gauss", (module Dsm_apps.Gauss));
    ("mgs", (module Dsm_apps.Mgs));
  ]

let tests =
  List.concat_map
    (fun (name, m) ->
      [
        Alcotest.test_case (name ^ ": all versions correct") `Slow (fun () ->
            check_app name m);
        Alcotest.test_case (name ^ ": speedup sane") `Slow
          (test_speedups_sane m);
        Alcotest.test_case (name ^ ": opt reduces messages") `Slow
          (test_opt_reduces_messages m);
        Alcotest.test_case (name ^ ": opt reduces faults") `Slow
          (test_opt_reduces_faults m);
      ])
    apps
  @ [
      Alcotest.test_case "jacobi: frames only for touched columns" `Slow
        test_jacobi_frames_follow_touches;
    ]
