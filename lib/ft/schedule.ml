(* Deterministic crash-stop schedule.

   A schedule is pure configuration, exactly like {!Dsm_net.Plan}: the set
   of node failures of a run is fixed up front as [(proc, at_us, down_us)]
   triples carried by {!Dsm_sim.Config}, so a faulty run is bit-for-bit
   reproducible from its configuration alone. The runtime interpretation
   (fail-stop at the next release point at or after [at_us], rejoin after
   [down_us] of virtual downtime) lives in [Dsm_tmk.Recover]; this module
   only parses, validates and orders the triples. *)

module Config = Dsm_sim.Config
module Plan = Dsm_net.Plan

type event = { proc : int; at_us : float; down_us : float }
type t = event list

let quorum_of ~replicas = (replicas / 2) + 1
let tolerance ~replicas = replicas - quorum_of ~replicas

(* "P@T+D[,P@T+D...]": processor P crashes at virtual time T for D
   microseconds. The empty string is the empty schedule. *)
let parse s =
  let s = String.trim s in
  if s = "" then Ok []
  else
    let parse_one spec =
      let fail () =
        Error
          (Printf.sprintf
             "crash: cannot parse %S (expected PROC@AT_US+DOWN_US)" spec)
      in
      match String.index_opt spec '@' with
      | None -> fail ()
      | Some i -> (
          let proc = String.sub spec 0 i in
          let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
          match String.index_opt rest '+' with
          | None -> fail ()
          | Some j -> (
              let at = String.sub rest 0 j in
              let down =
                String.sub rest (j + 1) (String.length rest - j - 1)
              in
              match
                ( int_of_string_opt (String.trim proc),
                  float_of_string_opt (String.trim at),
                  float_of_string_opt (String.trim down) )
              with
              | Some p, Some a, Some d -> Ok (p, a, d)
              | _ -> fail ()))
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | spec :: rest -> (
          match parse_one spec with
          | Ok e -> go (e :: acc) rest
          | Error _ as e -> e)
    in
    go [] (String.split_on_char ',' s)

(* Sort by trigger time, then processor: the order in which the runtime
   consumes the events is part of the deterministic contract. *)
let order events =
  List.sort
    (fun a b ->
      match compare a.at_us b.at_us with 0 -> compare a.proc b.proc | c -> c)
    events

(* Largest number of schedule windows open at one instant; crash-stop
   tolerance requires it to stay below the quorum margin. *)
let max_concurrent events =
  let edges =
    List.concat_map
      (fun e -> [ (e.at_us, 1); (e.at_us +. e.down_us, -1) ])
      events
  in
  let edges =
    List.sort
      (fun (ta, da) (tb, db) ->
        match compare ta tb with 0 -> compare da db | c -> c)
      edges
  in
  let cur = ref 0
  and best = ref 0 in
  List.iter
    (fun (_, d) ->
      cur := !cur + d;
      if !cur > !best then best := !cur)
    edges;
  !best

let validate ~nprocs ~backend ~replicas ~ckpt_every crash =
  let err field value range =
    Error (Plan.field_error ~field ~value ~range)
  in
  if replicas < 1 || replicas > nprocs then
    err "replicas" (string_of_int replicas)
      (Printf.sprintf "[1, nprocs=%d]" nprocs)
  else if ckpt_every < 0 then
    err "ckpt_every" (string_of_int ckpt_every) "[0, max_int]"
  else if crash <> [] && backend <> Config.Hlrc then
    Error "crash: a crash schedule requires the hlrc backend"
  else if replicas > 1 && backend <> Config.Hlrc then
    (* only hlrc has homes to replicate: elsewhere the quorum reads would
       be paid for with no quorum write behind them *)
    err "replicas" (string_of_int replicas) "{1} unless the backend is hlrc"
  else if crash <> [] && replicas < 3 then
    err "replicas" (string_of_int replicas)
      "[3, nprocs] when a crash schedule is set"
  else begin
    let bad =
      List.find_map
        (fun (p, at, down) ->
          if p < 0 || p >= nprocs then
            Some
              (Plan.field_error ~field:"crash proc" ~value:(string_of_int p)
                 ~range:(Printf.sprintf "[0, nprocs=%d)" nprocs))
          else if not (at >= 0.0) then
            Some
              (Plan.field_error ~field:"crash at_us"
                 ~value:(Printf.sprintf "%g" at)
                 ~range:"[0, inf)")
          else if not (down > 0.0) then
            Some
              (Plan.field_error ~field:"crash down_us"
                 ~value:(Printf.sprintf "%g" down)
                 ~range:"(0, inf)")
          else None)
        crash
    in
    match bad with
    | Some msg -> Error msg
    | None ->
        let events =
          order
            (List.map
               (fun (proc, at_us, down_us) -> { proc; at_us; down_us })
               crash)
        in
        (* per-processor windows must not overlap: a node cannot crash
           again before it has rejoined *)
        let overlap = ref None in
        List.iteri
          (fun i a ->
            List.iteri
              (fun j b ->
                if
                  j > i && a.proc = b.proc
                  && a.at_us +. a.down_us > b.at_us
                then overlap := Some a.proc)
              events)
          events;
        (match !overlap with
        | Some p ->
            Error
              (Printf.sprintf
                 "crash: overlapping windows for processor %d (a node must \
                  rejoin before it can crash again)"
                 p)
        | None ->
            let concurrent = max_concurrent events in
            let budget = tolerance ~replicas in
            if crash <> [] && concurrent > budget then
              Error
                (Plan.field_error ~field:"crash concurrent failures"
                   ~value:(string_of_int concurrent)
                   ~range:
                     (Printf.sprintf "[0, %d] for replicas=%d" budget
                        replicas))
            else Ok events)
  end

let of_config (c : Config.t) =
  validate ~nprocs:c.Config.nprocs ~backend:c.Config.backend
    ~replicas:c.Config.replicas ~ckpt_every:c.Config.ckpt_every
    c.Config.crash

let pp ppf t =
  Format.fprintf ppf "@[<h>%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       (fun ppf e ->
         Format.fprintf ppf "%d@@%g+%g" e.proc e.at_us e.down_us))
    t
