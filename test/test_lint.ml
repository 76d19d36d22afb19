(* Tests of the dsm_lint static analyses: the cross-processor race
   detector, the Validate/Push soundness verifier, and the
   static-vs-dynamic differential. *)

module Lin = Dsm_compiler.Lin
module Ir = Dsm_compiler.Ir
module Access = Dsm_compiler.Access
module Conc = Dsm_compiler.Conc
module Sym_rsd = Dsm_compiler.Sym_rsd
module Programs = Dsm_compiler.Programs
module Transform = Dsm_compiler.Transform
module Diag = Dsm_lint.Diag
module Race = Dsm_lint.Race
module Verify = Dsm_lint.Verify
module Differential = Dsm_lint.Differential
module Range = Dsm_rsd.Range

let v = Lin.var
let c = Lin.const

let shipped () =
  [
    Programs.jacobi ~m:16 ~iters:2;
    Programs.transpose ~m:16 ~iters:2;
    Programs.redblack ~n:64 ~iters:2;
    Programs.masked ~m:32 ~iters:2;
    Programs.lock_accum ~n:32 ~iters:2;
  ]

let levels =
  [
    ("base", Transform.base);
    ("aggr", Transform.level_aggregate);
    ("cons", Transform.level_cons_elim);
    ("merge", Transform.level_sync_merge);
    ("push", Transform.level_push);
  ]

let check_clean name ds =
  if ds <> [] then
    Alcotest.failf "%s: unexpected diagnostics:@;%a" name
      (Format.pp_print_list Diag.pp)
      ds

let has pred ds = List.exists (fun d -> pred d.Diag.kind) ds
let errors ds = List.filter Diag.is_error ds

(* AST rewriting for the hand-mutated negative tests: [f] returns a
   replacement statement list, or None to keep the statement and
   recurse into it. *)
let rec map_stmts f stmts =
  List.concat_map
    (fun s ->
      match f s with
      | Some repl -> repl
      | None -> (
          match s with
          | Ir.For l -> [ Ir.For { l with Ir.body = map_stmts f l.Ir.body } ]
          | Ir.If_lt (a, b, t, e) ->
              [ Ir.If_lt (a, b, map_stmts f t, map_stmts f e) ]
          | s -> [ s ]))
    stmts

let mutate prog f = { prog with Ir.body = map_stmts f prog.Ir.body }

(* {2 Race detection} *)

(* Block-partitioned parallel write loop inside a steady-state loop.
   [spill] extends every interior processor's partition [spill] elements
   into its right neighbour's block: 0 is data-race-free, >= 1 is an
   adjacent write/write race on [a]. [guarded] wraps the assignment in a
   conditional, making the summaries inexact. Nobody writes [b]. *)
let blockwrite ?(guarded = false) ~n ~spill () =
  {
    Ir.pname = "blockwrite";
    params = [ ("n", n) ];
    arrays = [ ("a", [ c n ]); ("b", [ c (n + 8) ]) ];
    privates = [];
    proc_bindings =
      (fun ~nprocs ~p ->
        let chunk = n / nprocs in
        let lo = p * chunk in
        let hi =
          if p = nprocs - 1 then n - 1 else ((p + 1) * chunk) - 1 + spill
        in
        [ ("begin", lo); ("end", hi); ("p", p) ]);
    body =
      [
        Ir.For
          {
            ivar = "k";
            lo = c 1;
            hi = c 2;
            body =
              [
                Ir.For
                  {
                    ivar = "i";
                    lo = v "begin";
                    hi = v "end";
                    body =
                      (let asn =
                         Ir.Assign
                           ( { Ir.aname = "a"; aidx = [ v "i" ] },
                             Ir.Load
                               {
                                 Ir.aname = "b";
                                 aidx = [ Lin.offset (v "i") 4 ];
                               } )
                       in
                       if guarded then
                         [ Ir.If_lt (v "i", c (n - 1), [ asn ], []) ]
                       else [ asn ]);
                  };
                Ir.Barrier 1;
              ];
          };
      ];
  }

let test_shipped_race_free () =
  List.iter
    (fun prog ->
      List.iter
        (fun nprocs ->
          check_clean
            (Printf.sprintf "%s source, %d procs" prog.Ir.pname nprocs)
            (Race.check prog ~nprocs);
          List.iter
            (fun (lname, opts) ->
              let t, _ = Transform.transform prog ~nprocs ~opts in
              check_clean
                (Printf.sprintf "%s %s, %d procs" prog.Ir.pname lname nprocs)
                (Race.check t ~nprocs))
            levels)
        [ 1; 2; 4; 8 ])
    (shipped ())

let test_seeded_race () =
  let ds = Race.check (blockwrite ~n:32 ~spill:1 ()) ~nprocs:4 in
  Alcotest.(check bool) "race reported" true (ds <> []);
  List.iter
    (fun d ->
      Alcotest.(check bool) "is error" true (Diag.is_error d);
      match d.Diag.kind with
      | Diag.Race { array; race; inexact; _ } ->
          Alcotest.(check string) "array" "a" array;
          Alcotest.(check bool)
            "write-write" true
            (race = Diag.Write_write);
          Alcotest.(check bool) "exact" false inexact
      | _ -> Alcotest.fail "non-race diagnostic")
    ds

let test_inexact_race_is_warning () =
  let ds = Race.check (blockwrite ~guarded:true ~n:32 ~spill:1 ()) ~nprocs:4 in
  Alcotest.(check bool) "race reported" true (ds <> []);
  Alcotest.(check int) "no errors" 0 (List.length (errors ds));
  List.iter
    (fun d ->
      match d.Diag.kind with
      | Diag.Race { inexact; _ } ->
          Alcotest.(check bool) "flagged inexact" true inexact;
          Alcotest.(check bool)
            "warning severity" true
            (d.Diag.severity = Diag.Warning)
      | _ -> Alcotest.fail "non-race diagnostic")
    ds

(* Writes and reads of [a] in one barrier epoch, separated only by an
   empty lock critical section: each processor writes its own block of
   [a] and reads a reversed index that crosses into other blocks. The
   lock orders nothing here (whichever processor acquires it first, the
   others' accesses are unordered), so the lint must report a read-write
   race on [a] with the write region first and with it second. *)
let lock_separated ~write_first ~n =
  let wloop =
    Ir.For
      {
        ivar = "i";
        lo = v "begin";
        hi = v "end";
        body =
          [ Ir.Assign ({ Ir.aname = "a"; aidx = [ v "i" ] }, Ir.Fconst 1.0) ];
      }
  and rloop =
    Ir.For
      {
        ivar = "i";
        lo = v "begin";
        hi = v "end";
        body =
          [
            Ir.Assign
              ( { Ir.aname = "s"; aidx = [ v "i" ] },
                Ir.Load
                  { Ir.aname = "a"; aidx = [ Lin.sub (c (n - 1)) (v "i") ] } );
          ];
      }
  in
  let first, second = if write_first then (wloop, rloop) else (rloop, wloop) in
  {
    Ir.pname = (if write_first then "write-then-read" else "read-then-write");
    params = [ ("n", n) ];
    arrays = [ ("a", [ c n ]); ("s", [ c n ]) ];
    privates = [];
    proc_bindings =
      (fun ~nprocs ~p ->
        let chunk = n / nprocs in
        let lo = p * chunk in
        let hi = if p = nprocs - 1 then n - 1 else ((p + 1) * chunk) - 1 in
        [ ("begin", lo); ("end", hi); ("p", p) ]);
    body =
      [
        Ir.Barrier 0;
        first;
        Ir.Lock_acquire 0;
        Ir.Lock_release 0;
        second;
        Ir.Barrier 1;
      ];
  }

let test_lock_separated_race () =
  List.iter
    (fun write_first ->
      let prog = lock_separated ~write_first ~n:32 in
      let ds = Race.check prog ~nprocs:4 in
      Alcotest.(check bool) (prog.Ir.pname ^ ": race reported") true (ds <> []);
      List.iter
        (fun d ->
          Alcotest.(check bool) "is error" true (Diag.is_error d);
          match d.Diag.kind with
          | Diag.Race { array; race; inexact; _ } ->
              Alcotest.(check string) "array" "a" array;
              Alcotest.(check bool) "read-write" true (race = Diag.Read_write);
              Alcotest.(check bool) "exact" false inexact
          | _ -> Alcotest.fail "non-race diagnostic")
        ds)
    [ true; false ]

(* Regression for the cyclic steady state: the region after Jacobi's last
   barrier wraps around to the compute phase, whose reads extend one
   column into each neighbour (the paper's Fprec(p1) = b2). The wrapped
   reads must be in the summary — and must not be reported as a race. *)
let test_jacobi_wraparound () =
  let prog = Programs.jacobi ~m:16 ~iters:2 in
  let nprocs = 2 in
  let res = Access.analyze prog ~nprocs in
  Alcotest.(check bool) "steady state found" true res.Access.cyclic;
  let r =
    match Access.find_region_after res (res.Access.sync_count - 1) with
    | Some r -> r
    | None -> Alcotest.fail "no wrap-around region"
  in
  let e =
    match Access.entry r "b" with
    | Some e -> e
    | None -> Alcotest.fail "wrap-around region has no entry for b"
  in
  Alcotest.(check bool) "reads b" true e.Access.tag.Access.read;
  let reads =
    match e.Access.reads with
    | Some s -> s
    | None -> Alcotest.fail "no read summary for b"
  in
  (* processor 0 must read into its neighbour's first column *)
  let binding = Conc.binding prog ~nprocs ~p:0 in
  let hi = binding "end" in
  let m = binding "M" in
  let neighbour_col_addr = 8 * m * (hi + 1) in
  let rng = Conc.ranges prog ~nprocs ~p:0 "b" reads in
  Alcotest.(check bool)
    "Fprec(p1) includes b's neighbour column" true
    (Range.mem neighbour_col_addr rng);
  check_clean "jacobi wrap-around" (Race.check prog ~nprocs)

(* {2 Property tests: random DRF partitions vs seeded overlaps} *)

let gen_conf =
  QCheck.Gen.(
    oneofl [ 2; 4; 8 ] >>= fun nprocs ->
    int_range 2 6 >>= fun mult ->
    int_range 1 3 >>= fun spill -> return (2 * nprocs * mult, nprocs, spill))

let print_conf (n, nprocs, spill) =
  Printf.sprintf "n=%d nprocs=%d spill=%d" n nprocs spill

let prop_drf =
  QCheck.Test.make ~count:60 ~name:"random block partitions are race-free"
    (QCheck.make ~print:print_conf gen_conf)
    (fun (n, nprocs, _) ->
      Race.check (blockwrite ~n ~spill:0 ()) ~nprocs = [])

let prop_mutated =
  QCheck.Test.make ~count:60
    ~name:"extending one partition bound yields exactly that race"
    (QCheck.make ~print:print_conf gen_conf)
    (fun (n, nprocs, spill) ->
      let ds = Race.check (blockwrite ~n ~spill ()) ~nprocs in
      ds <> []
      && List.for_all
           (fun d ->
             Diag.is_error d
             &&
             match d.Diag.kind with
             | Diag.Race { array = "a"; race = Diag.Write_write; _ } -> true
             | _ -> false)
           ds)

(* {2 Transform verification} *)

let test_verify_shipped_clean () =
  List.iter
    (fun prog ->
      List.iter
        (fun nprocs ->
          List.iter
            (fun (lname, opts) ->
              let t, _ = Transform.transform prog ~nprocs ~opts in
              check_clean
                (Printf.sprintf "%s %s, %d procs" prog.Ir.pname lname nprocs)
                (Verify.run ~orig:prog ~transformed:t ~nprocs))
            levels)
        [ 1; 2; 4; 8 ])
    (shipped ())

let transform_jacobi level =
  let prog = Programs.jacobi ~m:16 ~iters:2 in
  let t, _ = Transform.transform prog ~nprocs:2 ~opts:level in
  (prog, t)

let shrink_last_dim (s : Sym_rsd.t) =
  match List.rev s.Sym_rsd.dims with
  | last :: rest ->
      {
        s with
        Sym_rsd.dims =
          List.rev
            ({ last with Sym_rsd.hi = Lin.offset last.Sym_rsd.hi (-1) }
            :: rest);
      }
  | [] -> s

let widen_last_dim (s : Sym_rsd.t) =
  match List.rev s.Sym_rsd.dims with
  | last :: rest ->
      {
        s with
        Sym_rsd.dims =
          List.rev
            ({
               last with
               Sym_rsd.lo = Lin.offset last.Sym_rsd.lo (-1);
               Sym_rsd.hi = Lin.offset last.Sym_rsd.hi 1;
             }
            :: rest);
      }
  | [] -> s

(* A Push that no longer sends a column the receiver fetches: the
   verifier must flag the uncovered fetch. *)
let test_verify_rejects_shrunk_push () =
  let prog, t = transform_jacobi Transform.level_push in
  let t' =
    mutate t (function
      | Ir.Push pc ->
          Some
            [
              Ir.Push
                {
                  pc with
                  Ir.pwrite =
                    List.map
                      (fun (a, s) -> (a, shrink_last_dim s))
                      pc.Ir.pwrite;
                };
            ]
      | _ -> None)
  in
  let ds = Verify.run ~orig:prog ~transformed:t' ~nprocs:2 in
  Alcotest.(check bool)
    "missing validate reported" true
    (has (function Diag.Missing_validate _ -> true | _ -> false)
       (errors ds))

(* Deleting the aggregated READ validate leaves the compute region's
   boundary fetches uncovered. *)
let test_verify_rejects_dropped_validate () =
  let prog, t = transform_jacobi Transform.level_aggregate in
  let t' =
    mutate t (function
      | Ir.Validate vc when vc.Ir.vaccess = Dsm_tmk.Tmk.Read -> Some []
      | _ -> None)
  in
  let ds = Verify.run ~orig:prog ~transformed:t' ~nprocs:2 in
  Alcotest.(check bool)
    "missing validate reported" true
    (has (function Diag.Missing_validate _ -> true | _ -> false)
       (errors ds))

(* A WRITE_ALL over more than the region writes would mark stale pages
   valid without fetching them. *)
let test_verify_rejects_widened_write_all () =
  let prog, t = transform_jacobi Transform.level_push in
  let t' =
    mutate t (function
      | Ir.Validate vc when vc.Ir.vaccess = Dsm_tmk.Tmk.Write_all ->
          Some
            [
              Ir.Validate
                {
                  vc with
                  Ir.vsections =
                    List.map
                      (fun (a, s) -> (a, widen_last_dim s))
                      vc.Ir.vsections;
                };
            ]
      | _ -> None)
  in
  let ds = Verify.run ~orig:prog ~transformed:t' ~nprocs:2 in
  Alcotest.(check bool)
    "bad WRITE_ALL reported" true
    (has (function Diag.Bad_all_validate _ -> true | _ -> false)
       (errors ds))

(* Flipping a READ validate to WRITE_ALL disables consistency on data
   the region only reads. *)
let test_verify_rejects_flipped_access () =
  let prog, t = transform_jacobi Transform.level_aggregate in
  let t' =
    mutate t (function
      | Ir.Validate vc when vc.Ir.vaccess = Dsm_tmk.Tmk.Read ->
          Some
            [ Ir.Validate { vc with Ir.vaccess = Dsm_tmk.Tmk.Write_all } ]
      | _ -> None)
  in
  let ds = Verify.run ~orig:prog ~transformed:t' ~nprocs:2 in
  Alcotest.(check bool)
    "bad WRITE_ALL reported" true
    (has (function Diag.Bad_all_validate _ -> true | _ -> false)
       (errors ds))

(* Replacing the barrier the transformation must keep: a cross-processor
   anti-dependence (neighbour reads the old boundary column before the
   copy-back overwrites it) crosses Barrier(1). *)
let test_verify_rejects_illegal_push () =
  let prog, t = transform_jacobi Transform.level_aggregate in
  let t' =
    mutate t (function
      | Ir.Barrier 1 -> Some [ Ir.Push { Ir.pread = []; pwrite = [] } ]
      | _ -> None)
  in
  let ds = Verify.run ~orig:prog ~transformed:t' ~nprocs:2 in
  Alcotest.(check bool)
    "illegal push reported" true
    (has
       (function
         | Diag.Illegal_push { dep = `Anti; array = "b"; _ } -> true
         | _ -> false)
       (errors ds))

(* {2 Static-vs-dynamic differential} *)

let test_differential_coverage () =
  List.iter
    (fun prog ->
      List.iter
        (fun (lname, opts) ->
          let r = Differential.run ~opts prog ~nprocs:2 in
          check_clean
            (Printf.sprintf "%s %s differential" prog.Ir.pname lname)
            r.Differential.diags;
          Array.iteri
            (fun p (s : Differential.proc_stat) ->
              Alcotest.(check int)
                (Printf.sprintf "%s %s p%d fully covered" prog.Ir.pname
                   lname p)
                s.Differential.dynamic_pages s.Differential.covered_pages)
            r.Differential.per_proc)
        [ ("base", Transform.base); ("all", Transform.all) ])
    [
      Programs.jacobi ~m:16 ~iters:2;
      Programs.transpose ~m:16 ~iters:2;
      Programs.redblack ~n:64 ~iters:2;
    ]

let test_differential_catches_truncation () =
  let page_size = 4096 in
  let access proc page write =
    {
      Dsm_trace.Replay.proc;
      page;
      write;
      epoch = 0;
      time = 0.;
    }
  in
  let accesses = [ access 0 5 false; access 1 5 true; access 1 6 false ] in
  (* full static set: everything covered *)
  let full =
    [|
      Range.of_interval (5 * page_size) (6 * page_size);
      Range.of_interval (5 * page_size) (7 * page_size);
    |]
  in
  let r =
    Differential.check ~program:"synthetic" ~page_size ~nprocs:2
      ~static:full accesses
  in
  check_clean "full summary" r.Differential.diags;
  (* truncated static set: proc 1 loses page 6 *)
  let truncated =
    [|
      Range.of_interval (5 * page_size) (6 * page_size);
      Range.of_interval (5 * page_size) (6 * page_size);
    |]
  in
  let r =
    Differential.check ~program:"synthetic" ~page_size ~nprocs:2
      ~static:truncated accesses
  in
  Alcotest.(check int) "one uncovered page" 1
    (List.length r.Differential.diags);
  match (List.hd r.Differential.diags).Diag.kind with
  | Diag.Uncovered_access { p = 1; page = 6; _ } -> ()
  | _ -> Alcotest.fail "expected uncovered access on proc 1 page 6"

let tests =
  [
    Alcotest.test_case "shipped programs are race-free" `Quick
      test_shipped_race_free;
    Alcotest.test_case "seeded write-write race is detected" `Quick
      test_seeded_race;
    Alcotest.test_case "inexact overlap degrades to warning" `Quick
      test_inexact_race_is_warning;
    Alcotest.test_case "race across an empty lock section" `Quick
      test_lock_separated_race;
    Alcotest.test_case "jacobi wrap-around region (Fprec(p1)=b2)" `Quick
      test_jacobi_wraparound;
    Alcotest.test_case "verifier accepts all transformed programs" `Quick
      test_verify_shipped_clean;
    Alcotest.test_case "verifier rejects shrunk Push" `Quick
      test_verify_rejects_shrunk_push;
    Alcotest.test_case "verifier rejects dropped Validate" `Quick
      test_verify_rejects_dropped_validate;
    Alcotest.test_case "verifier rejects widened WRITE_ALL" `Quick
      test_verify_rejects_widened_write_all;
    Alcotest.test_case "verifier rejects READ flipped to WRITE_ALL" `Quick
      test_verify_rejects_flipped_access;
    Alcotest.test_case "verifier rejects Push of a kept barrier" `Quick
      test_verify_rejects_illegal_push;
    Alcotest.test_case "differential: static covers dynamic" `Quick
      test_differential_coverage;
    Alcotest.test_case "differential: truncated summary is caught" `Quick
      test_differential_catches_truncation;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_drf; prop_mutated ]
