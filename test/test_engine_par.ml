(* Failure contracts of the engine's scheduling loop, beyond the basic
   cases in [Test_sim]: a deadlock report names only the fibers still
   blocked, not those that already exited, and a Proc_failure raised
   after a yield unwinds every suspended sibling through its finalizers.
   The group keeps the name it had when it also covered a parallel
   engine. *)

module Engine = Dsm_sim.Engine

let test_deadlock_lists_only_waiters () =
  (* processor 1 waits on a flag only processor 2 could set, but 2 exits
     without setting it; 0, 2 and 3 finish, so only 1 is reported *)
  let flag = ref false in
  match
    Engine.run ~nprocs:4 (fun p ->
        if p = 1 then Engine.block ~until:(fun () -> !flag))
  with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Engine.Deadlock m ->
      Alcotest.(check string) "message" "fibers blocked: [1]" m

exception Boom

let test_failure_runs_finalizers () =
  (* processor 3 fails after every other fiber is suspended; 0, 1 and 2
     must be unwound (their Fun.protect finalizers run) and the failure
     must surface as Proc_failure (3, Boom) *)
  let unwound = Array.make 4 false in
  let run () =
    Engine.run ~nprocs:4 (fun p ->
        if p = 3 then begin
          Engine.yield ();
          raise Boom
        end
        else
          Fun.protect
            ~finally:(fun () -> unwound.(p) <- true)
            (fun () -> Engine.block ~until:(fun () -> false)))
  in
  (match run () with
  | () -> Alcotest.fail "expected Proc_failure"
  | exception Engine.Proc_failure (3, Boom) -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e));
  Array.iteri
    (fun p got ->
      Alcotest.(check bool)
        (Printf.sprintf "fiber %d finalizer ran" p)
        (p <> 3) got)
    unwound

let tests =
  [
    Alcotest.test_case "deadlock detection across shared-flag waits" `Quick
      test_deadlock_lists_only_waiters;
    Alcotest.test_case "Proc_failure unwinds fibers and runs finalizers" `Quick
      test_failure_runs_finalizers;
  ]
