(* Application integration tests: every program, every version, every
   applicable optimization level must reproduce the sequential reference
   exactly (the parallel codes perform the identical per-element operation
   sequences). Run at 4 processors on the small data sets to keep the suite
   fast. *)

open Dsm_apps.App_common

let cfg = { Dsm_sim.Config.default with Dsm_sim.Config.nprocs = 4 }

(* A kernel's tmk version at its small data set. *)
let tmk (module A : Dsm_apps.Workload.S) ~level ~async =
  A.tmk cfg ~size:(List.assoc "small" A.sizes) ~behavior:A.default_behavior
    ~level ~async

let best_level (module A : Dsm_apps.Workload.S) =
  List.fold_left (fun _ l -> l) Base A.levels

let check_app name (module A : Dsm_apps.Workload.S) =
  let size = List.assoc "small" A.sizes and behavior = A.default_behavior in
  List.iter
    (fun level ->
      List.iter
        (fun async ->
          let r = A.tmk cfg ~size ~behavior ~level ~async in
          Alcotest.(check (float 1e-6))
            (Printf.sprintf "%s tmk %s %s" name (opt_level_name level)
               (if async then "async" else "sync"))
            0.0 r.max_err;
          Alcotest.(check bool)
            (Printf.sprintf "%s %s time positive" name (opt_level_name level))
            true (r.time_us > 0.0))
        [ false; true ])
    A.levels;
  let r = A.pvm cfg ~size ~behavior in
  Alcotest.(check (float 1e-6)) (name ^ " pvm") 0.0 r.max_err;
  match A.xhpf with
  | Some f ->
      let r = f cfg ~size ~behavior in
      Alcotest.(check (float 1e-6)) (name ^ " xhpf") 0.0 r.max_err
  | None -> ()

let test_speedups_sane (module A : Dsm_apps.Workload.S) () =
  (* parallel virtual time beats a processor count's worth of slowdown and
     never beats perfect speedup by more than rounding *)
  let seq = A.seq_time_us (List.assoc "small" A.sizes) in
  let r = tmk (module A) ~level:Base ~async:false in
  let s = seq /. r.time_us in
  Alcotest.(check bool) "0.2 <= speedup <= nprocs" true
    (s >= 0.2 && s <= float_of_int cfg.Dsm_sim.Config.nprocs +. 0.01)

let test_opt_reduces_messages app () =
  let base = tmk app ~level:Base ~async:false in
  let opt = tmk app ~level:(best_level app) ~async:true in
  Alcotest.(check bool) "fewer or equal messages" true
    (opt.stats.Dsm_sim.Stats.messages <= base.stats.Dsm_sim.Stats.messages)

let test_opt_reduces_faults app () =
  let base = tmk app ~level:Base ~async:false in
  let opt = tmk app ~level:(best_level app) ~async:true in
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
    Dsm_apps.Jacobi.tmk ~inspect cfg ~size:prm ~behavior:() ~level:Base
      ~async:false
  in
  Alcotest.(check (float 1e-6)) "jacobi correct" 0.0 r.max_err

(* Regression: with twice as many processors as planes (16^3 at 32
   processors) the trailing FFT slabs are empty, and the message-passing
   versions must still run and verify instead of sizing a negative slab. *)
let test_fft3d_mp_empty_slabs () =
  let cfg = { Dsm_sim.Config.default with Dsm_sim.Config.nprocs = 32 } in
  let prm = Dsm_apps.Fft3d.small in
  let r = Dsm_apps.Fft3d.pvm cfg ~size:prm ~behavior:() in
  Alcotest.(check (float 1e-6)) "fft3d pvm at 32 procs" 0.0 r.max_err;
  match Dsm_apps.Fft3d.xhpf with
  | Some f ->
      let r = f cfg ~size:prm ~behavior:() in
      Alcotest.(check (float 1e-6)) "fft3d xhpf at 32 procs" 0.0 r.max_err
  | None -> Alcotest.fail "fft3d has an xhpf version"

(* Regression: at processor counts that divide neither the key nor the
   bucket count, the last processor owns the remainder keys and the last
   section the remainder buckets, so every key is ranked. *)
let test_is_uneven_procs () =
  let size = Dsm_apps.Is.small in
  List.iter
    (fun nprocs ->
      let cfg = { Dsm_sim.Config.default with Dsm_sim.Config.nprocs } in
      List.iter
        (fun level ->
          let r =
            Dsm_apps.Is.tmk cfg ~size ~behavior:() ~level ~async:false
          in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "is tmk %s at %d procs" (opt_level_name level)
               nprocs)
            0.0 r.max_err)
        Dsm_apps.Is.levels;
      let r = Dsm_apps.Is.pvm cfg ~size ~behavior:() in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "is pvm at %d procs" nprocs)
        0.0 r.max_err)
    [ 3; 5; 6 ]

(* Memoized references are laid out column after column and live
   outside the OCaml heap, where the major GC neither counts nor paces
   itself by them. *)
let test_references_off_heap () =
  let open Dsm_apps.App_common in
  let r = floats_of_columns [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  Alcotest.(check int) "all elements" 6 (Bigarray.Array1.dim r);
  Alcotest.(check (float 0.0)) "column 1, row 2 at 1 * 3 + 2" 6.0 r.{(1 * 3) + 2};
  let n = 1 lsl 20 in
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  let big = floats_of_array (Array.make n 1.0) in
  Gc.full_major ();
  let grown = (Gc.stat ()).Gc.live_words - before in
  Alcotest.(check bool)
    (Printf.sprintf "a %d-element reference adds %d live heap words" n grown)
    true
    (grown < n / 100);
  Alcotest.(check (float 0.0)) "reference kept" 1.0 big.{n - 1}

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
    Dsm_apps.Registry.kernels
  @ [
      Alcotest.test_case "jacobi: frames only for touched columns" `Slow
        test_jacobi_frames_follow_touches;
      Alcotest.test_case "fft3d: mp versions with empty slabs" `Quick
        test_fft3d_mp_empty_slabs;
      Alcotest.test_case "is: 3, 5 and 6 processors" `Quick
        test_is_uneven_procs;
      Alcotest.test_case "references: column layout, off the OCaml heap"
        `Quick test_references_off_heap;
    ]
