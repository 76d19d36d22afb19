(* Coherence-backend equivalence.

   All four backends implement the same memory model for data-race-free
   programs, so every application must produce byte-identical shared
   memory under homeless LRC, home-based LRC, the single-writer
   invalidate protocol and the adaptive switcher: each app x {1,2,4,8}
   processors x optimization levels is run under the backends and the
   {!Tmk.digest} of the final shared state compared. Additional suites
   cover: digest equality across the three home assignment policies,
   determinism of each backend (same run twice, same digest and clocks —
   including the adaptive backend's per-page switch decisions), every
   backend's runs through the trace invariant checker, the first-touch
   home-assignment regression (tracing must not perturb the
   assignments), the new-style [Tmk.Alloc], the per-protocol
   statistics counters, and the clock invariant behind the barrier's
   departure clock. *)

module Config = Dsm_sim.Config
module Stats = Dsm_sim.Stats
module Sink = Dsm_trace.Sink
module Check = Dsm_trace.Check
module Tmk = Dsm_tmk.Tmk
module Types = Dsm_tmk.Types
module Vc = Dsm_tmk.Vc
open Dsm_apps.App_common

let cfg ?(policy = Config.Home_block) backend nprocs =
  {
    Config.default with
    Config.nprocs;
    Config.backend;
    Config.home_policy = policy;
  }

(* Reduced data sets: enough pages, processors and iterations to exercise
   every protocol path, small enough that the full matrix stays fast. *)

let jacobi_prm =
  let open Dsm_apps.Jacobi in
  { small with m = 64; iters = 3 }

let shallow_prm =
  let open Dsm_apps.Shallow in
  { small with m = 64; n = 32; steps = 3 }

let gauss_prm =
  let open Dsm_apps.Gauss in
  { small with m = 48 }

let mgs_prm =
  let open Dsm_apps.Mgs in
  { small with m = 48; n = 32 }

let fft3d_prm =
  let open Dsm_apps.Fft3d in
  { small with n = 8; iters = 2 }

let is_prm =
  let open Dsm_apps.Is in
  { small with n_keys = 1 lsl 12; n_buckets = 1 lsl 8; reps = 2 }

type case = {
  app : string;
  levels : opt_level list;
  run :
    ?trace:Sink.t ->
    ?digest:bool ->
    ?inspect:(Tmk.system -> unit) ->
    Config.t -> level:opt_level -> async:bool -> result;
}

let cases : case list =
  [
    {
      app = "jacobi";
      levels = Dsm_apps.Jacobi.levels;
      run =
        (fun ?trace ?digest ?inspect c ->
          Dsm_apps.Jacobi.tmk ?trace ?digest ?inspect c ~size:jacobi_prm
            ~behavior:());
    };
    {
      app = "fft3d";
      levels = Dsm_apps.Fft3d.levels;
      run =
        (fun ?trace ?digest ?inspect c ->
          Dsm_apps.Fft3d.tmk ?trace ?digest ?inspect c ~size:fft3d_prm
            ~behavior:());
    };
    {
      app = "shallow";
      levels = Dsm_apps.Shallow.levels;
      run =
        (fun ?trace ?digest ?inspect c ->
          Dsm_apps.Shallow.tmk ?trace ?digest ?inspect c ~size:shallow_prm
            ~behavior:());
    };
    {
      app = "is";
      levels = Dsm_apps.Is.levels;
      run =
        (fun ?trace ?digest ?inspect c ->
          Dsm_apps.Is.tmk ?trace ?digest ?inspect c ~size:is_prm
            ~behavior:());
    };
    {
      app = "gauss";
      levels = Dsm_apps.Gauss.levels;
      run =
        (fun ?trace ?digest ?inspect c ->
          Dsm_apps.Gauss.tmk ?trace ?digest ?inspect c ~size:gauss_prm
            ~behavior:());
    };
    {
      app = "mgs";
      levels = Dsm_apps.Mgs.levels;
      run =
        (fun ?trace ?digest ?inspect c ->
          Dsm_apps.Mgs.tmk ?trace ?digest ?inspect c ~size:mgs_prm
            ~behavior:());
    };
  ]

(* {1 The departure clock}

   The barrier's last arriver sets entry [q] of the departure clock to
   [q]'s own entry instead of merging every clock. That is exact only if
   no processor's copy of entry [q] ever exceeds [q]'s own. After each
   run (whose exit barrier is the last one), every copy must be at most
   the owner's entry, and the departure clock must be the pointwise max
   of all clocks: a departure clock built from a processor that had not
   yet heard of [q]'s last interval falls short of [q]'s own entry. The
   lrc = hlrc matrix and every checker run inspect their system with
   it, so it covers all four backends, every level, sync and async. *)
let check_clocks ~name (sys : Tmk.system) =
  let states = sys.Types.states in
  let n = Array.length states in
  let own q = Vc.get states.(q).Types.vc q in
  Array.iteri
    (fun r (st : Types.pstate) ->
      for q = 0 to n - 1 do
        if Vc.get st.Types.vc q > own q then
          Alcotest.failf "%s: vc_%d.(%d) = %d exceeds vc_%d.(%d) = %d" name r
            q (Vc.get st.Types.vc q) q q (own q)
      done)
    states;
  let dvc = sys.Types.barrier.Types.departure_vc in
  let max_vc = Vc.create n in
  Array.iter (fun (st : Types.pstate) -> Vc.merge max_vc st.Types.vc) states;
  Alcotest.(check (array int))
    (name ^ ": departure clock is the max of all clocks")
    max_vc dvc

(* {1 lrc = hlrc, bit for bit} *)

let equivalence case () =
  List.iter
    (fun nprocs ->
      List.iter
        (fun level ->
          List.iter
            (fun async ->
              (* keep the matrix bounded: async only at 4 processors *)
              if (not async) || nprocs = 4 then begin
                let name =
                  Printf.sprintf "%s %s p%d%s" case.app (opt_level_name level)
                    nprocs
                    (if async then " async" else "")
                in
                let run backend =
                  case.run ~digest:true
                    ~inspect:
                      (check_clocks
                         ~name:(name ^ " " ^ Config.backend_name backend))
                    (cfg backend nprocs) ~level ~async
                in
                let r_lrc = run Config.Lrc in
                let r_hlrc = run Config.Hlrc in
                Alcotest.(check (float 1e-6))
                  (name ^ ": lrc verified") 0.0 r_lrc.max_err;
                Alcotest.(check (float 1e-6))
                  (name ^ ": hlrc verified") 0.0 r_hlrc.max_err;
                Alcotest.(check string)
                  (name ^ ": digests equal")
                  r_lrc.digest r_hlrc.digest
              end)
            [ false; true ])
        case.levels)
    [ 1; 2; 4; 8 ]

(* {1 Home policies} *)

let home_policies case () =
  let nprocs = 4 in
  let level = List.fold_left (fun _ l -> l) Base case.levels in
  let digest_of policy =
    let r =
      case.run ~digest:true (cfg ~policy Config.Hlrc nprocs) ~level ~async:false
    in
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "%s %s verified" case.app
         (Config.home_policy_name policy))
      0.0 r.max_err;
    r.digest
  in
  let block = digest_of Config.Home_block in
  let cyclic = digest_of Config.Home_cyclic in
  let first_touch = digest_of Config.Home_first_touch in
  Alcotest.(check string) (case.app ^ ": cyclic = block") block cyclic;
  Alcotest.(check string)
    (case.app ^ ": first-touch = block")
    block first_touch

(* {1 Determinism} *)

let determinism backend () =
  let case = List.hd cases in
  let run () =
    let r = case.run ~digest:true (cfg backend 4) ~level:Base ~async:false in
    let t = r.time_us and s = r.stats in
    (t, s, r.digest)
  in
  let t1, s1, d1 = run () in
  let t2, s2, d2 = run () in
  Alcotest.(check (float 0.0)) "clocks identical" t1 t2;
  Alcotest.(check string) "digests identical" d1 d2;
  Alcotest.(check int) "messages identical" s1.Stats.messages
    s2.Stats.messages;
  Alcotest.(check int) "bytes identical" s1.Stats.bytes s2.Stats.bytes

(* {1 The full family: inval and adaptive match lrc, bit for bit} *)

let last l = List.fold_left (fun _ x -> x) (List.hd l) l

let new_backend_equivalence case () =
  let levels =
    List.sort_uniq compare [ List.hd case.levels; last case.levels ]
  in
  List.iter
    (fun nprocs ->
      List.iter
        (fun level ->
          let name =
            Printf.sprintf "%s %s p%d" case.app (opt_level_name level) nprocs
          in
          let digest_of backend =
            let r =
              case.run ~digest:true (cfg backend nprocs) ~level ~async:true
            in
            Alcotest.(check (float 1e-6))
              (Printf.sprintf "%s %s verified" name
                 (Config.backend_name backend))
              0.0 r.max_err;
            r.digest
          in
          let d_lrc = digest_of Config.Lrc in
          Alcotest.(check string)
            (name ^ ": inval = lrc")
            d_lrc (digest_of Config.Inval);
          Alcotest.(check string)
            (name ^ ": adaptive = lrc")
            d_lrc
            (digest_of Config.Adaptive))
        levels)
    [ 1; 2; 4; 8 ]

(* {1 Every backend under the invariant checker} *)

let checker_clean backend case () =
  List.iter
    (fun nprocs ->
      List.iter
        (fun level ->
          let sink = Sink.create ~nprocs () in
          let name =
            Printf.sprintf "%s %s %s p%d" case.app
              (Config.backend_name backend)
              (opt_level_name level) nprocs
          in
          let r =
            case.run ~trace:sink ~inspect:(check_clocks ~name)
              (cfg backend nprocs) ~level ~async:true
          in
          Alcotest.(check (float 1e-6)) (name ^ ": verified") 0.0 r.max_err;
          match Check.run_sink sink with
          | [] -> ()
          | vs ->
              Alcotest.failf "%s: %d violations, first: %a" name
                (List.length vs) Check.pp_violation (List.hd vs))
        [ List.hd case.levels; last case.levels ])
    [ 1; 2; 4; 8 ]

(* {1 Adaptive switch decisions are deterministic} *)

let switch_determinism ?(jitter = 0.0) () =
  let case = List.hd cases in
  let switches () =
    let sink = Sink.create ~nprocs:4 () in
    let c =
      {
        (cfg Config.Adaptive 4) with
        Config.net_jitter_us = jitter;
        net_seed = 11;
      }
    in
    let r = case.run ~trace:sink c ~level:Base ~async:false in
    Alcotest.(check (float 1e-6)) "verified" 0.0 r.max_err;
    List.filter_map
      (fun (e : Dsm_trace.Event.t) ->
        match e.Dsm_trace.Event.kind with
        | Dsm_trace.Event.Proto_switch { page; proto; owner; epoch } ->
            Some
              (Printf.sprintf "page %d -> %s owner %d epoch %d" page proto
                 owner epoch)
        | _ -> None)
      (Sink.events sink)
  in
  let s1 = switches () in
  let s2 = switches () in
  Alcotest.(check bool) "some switches happened" true (s1 <> []);
  Alcotest.(check (list string)) "identical switch decisions" s1 s2

(* {1 First-touch home assignment is oblivious to tracing} *)

let first_touch_homes case () =
  let nprocs = 4 in
  let level = last case.levels in
  let run trace =
    let sink = if trace then Some (Sink.create ~nprocs ()) else None in
    let homes = ref [] in
    let r =
      case.run ?trace:sink
        ~inspect:(fun sys -> homes := Tmk.homes sys)
        (cfg ~policy:Config.Home_first_touch Config.Hlrc nprocs)
        ~level ~async:true
    in
    Alcotest.(check (float 1e-6)) (case.app ^ ": verified") 0.0 r.max_err;
    !homes
  in
  let off = run false in
  let on = run true in
  Alcotest.(check bool) (case.app ^ ": some homes assigned") true (off <> []);
  Alcotest.(check (list (pair int int)))
    (case.app ^ ": homes trace-on = trace-off")
    off on

(* {1 hlrc statistics} *)

let hlrc_stats () =
  let case = List.hd cases in
  let r_lrc = case.run (cfg Config.Lrc 4) ~level:Base ~async:false in
  let r_hlrc = case.run (cfg Config.Hlrc 4) ~level:Base ~async:false in
  let s = r_hlrc.stats in
  Alcotest.(check bool) "hlrc flushes counted" true (s.Stats.home_flushes > 0);
  Alcotest.(check bool) "hlrc fetches counted" true (s.Stats.home_fetches > 0);
  Alcotest.(check bool)
    "hlrc fetch bytes are whole pages" true
    (s.Stats.home_fetch_bytes mod Config.default.Config.page_size = 0);
  let sl = r_lrc.stats in
  Alcotest.(check int) "lrc has no home flushes" 0 sl.Stats.home_flushes;
  Alcotest.(check int) "lrc has no home fetches" 0 sl.Stats.home_fetches

(* {1 invalidate / adaptive statistics} *)

let inval_stats () =
  let case = List.hd cases in
  let r_inval = case.run (cfg Config.Inval 4) ~level:Base ~async:false in
  let r_adapt = case.run (cfg Config.Adaptive 4) ~level:Base ~async:false in
  let r_lrc = case.run (cfg Config.Lrc 4) ~level:Base ~async:false in
  let si = r_inval.stats in
  Alcotest.(check bool) "invalidations counted" true (si.Stats.invals > 0);
  Alcotest.(check bool) "downgrades counted" true (si.Stats.downgrades > 0);
  Alcotest.(check int) "inval makes no diffs" 0 si.Stats.diffs_created;
  let sa = r_adapt.stats in
  Alcotest.(check bool) "switches counted" true (sa.Stats.proto_switches > 0);
  let sl = r_lrc.stats in
  Alcotest.(check int) "lrc has no invalidations" 0 sl.Stats.invals;
  Alcotest.(check int) "lrc has no downgrades" 0 sl.Stats.downgrades;
  Alcotest.(check int) "lrc has no switches" 0 sl.Stats.proto_switches

(* {1 new-style alloc} *)

let alloc_api () =
  let sys = Tmk.make (cfg Config.Hlrc 2) in
  let a = Tmk.Alloc.array sys "a" ~dims:[ 3; 5 ] in
  let k = Tmk.Alloc.array sys "k" ~dims:[ 7 ] in
  Alcotest.(check (array int))
    "f64 extents" [| 3; 5 |] a.Dsm_rsd.Section.extents;
  Alcotest.(check (array int)) "i64 extents" [| 7 |] k.Dsm_rsd.Section.extents;
  Alcotest.(check string) "backend name" "hlrc" (Tmk.backend_name sys);
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      if p = 0 then begin
        Dsm_tmk.Shm.F64_2.set t a 2 4 3.5;
        Dsm_tmk.Shm.I64_1.set t k 6 42
      end;
      Tmk.barrier t;
      if p = 1 then begin
        Alcotest.(check (float 0.0)) "f64 roundtrip" 3.5
          (Dsm_tmk.Shm.F64_2.get t a 2 4);
        Alcotest.(check int) "i64 roundtrip" 42 (Dsm_tmk.Shm.I64_1.get t k 6)
      end)

(* {1 The departure clock through a crash}

   A crash regresses the victim's foreign entries to its checkpoint and
   keeps its own: the invariant of [check_clocks] holds through the
   restart. *)
let departure_clock_crash () =
  let cfg =
    {
      Config.default with
      Config.nprocs = 8;
      backend = Config.Hlrc;
      replicas = 3;
      crash = [ (1, 5000.0, 3000.0) ];
    }
  in
  let crashes = ref 0 in
  let r =
    Dsm_apps.Jacobi.tmk
      ~inspect:(fun sys ->
        check_clocks ~name:"jacobi hlrc k=3 crash" sys;
        crashes := (Tmk.total_stats sys).Stats.crashes)
      cfg ~size:Dsm_apps.Jacobi.small ~behavior:() ~level:Base ~async:false
  in
  Alcotest.(check (float 0.0)) "verified" 0.0 r.max_err;
  Alcotest.(check int) "the scheduled crash happened" 1 !crashes

let tests =
  List.concat_map
    (fun case ->
      [
        Alcotest.test_case
          (case.app ^ ": lrc = hlrc digests")
          `Slow (equivalence case);
        Alcotest.test_case
          (case.app ^ ": inval/adaptive = lrc digests")
          `Slow
          (new_backend_equivalence case);
        Alcotest.test_case
          (case.app ^ ": home policies agree")
          `Slow (home_policies case);
        Alcotest.test_case
          (case.app ^ ": hlrc checker clean")
          `Slow
          (checker_clean Config.Hlrc case);
        Alcotest.test_case
          (case.app ^ ": inval checker clean")
          `Slow
          (checker_clean Config.Inval case);
        Alcotest.test_case
          (case.app ^ ": adaptive checker clean")
          `Slow
          (checker_clean Config.Adaptive case);
        Alcotest.test_case
          (case.app ^ ": first-touch homes ignore tracing")
          `Slow (first_touch_homes case);
      ])
    cases
  @ [
      Alcotest.test_case "lrc deterministic" `Quick (determinism Config.Lrc);
      Alcotest.test_case "hlrc deterministic" `Quick (determinism Config.Hlrc);
      Alcotest.test_case "inval deterministic" `Quick
        (determinism Config.Inval);
      Alcotest.test_case "adaptive deterministic" `Quick
        (determinism Config.Adaptive);
      Alcotest.test_case "adaptive switch decisions deterministic" `Quick
        (switch_determinism ?jitter:None);
      Alcotest.test_case "adaptive switch decisions deterministic (jitter)"
        `Quick
        (switch_determinism ~jitter:50.0);
      Alcotest.test_case "hlrc stats counters" `Quick hlrc_stats;
      Alcotest.test_case "inval/adaptive stats counters" `Quick inval_stats;
      Alcotest.test_case "alloc API" `Quick alloc_api;
      Alcotest.test_case "departure clock: hlrc k=3 crash" `Quick
        departure_clock_crash;
    ]
