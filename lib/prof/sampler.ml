(* A statistical call-stack profile of the host process: a SIGPROF
   interval timer is asked to fire every [interval] seconds of CPU time,
   and its handler records the OCaml call stack. Stacks are recorded raw
   and resolved to function names only when the report is printed. The
   timer fires less often than asked (the kernel rounds it up to its
   tick), so the CPU time between [start] and [stop] is measured and the
   report prints the interval the samples really had. *)

let interval = 0.001
let max_frames = 256
let samples : Printexc.raw_backtrace list ref = ref []
let handler _ = samples := Printexc.get_callstack max_frames :: !samples

let timer v = { Unix.it_interval = v; it_value = v }

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let cpu_start = ref 0.0
let cpu_s = ref 0.0

let start () =
  samples := [];
  cpu_s := 0.0;
  cpu_start := cpu_now ();
  Sys.set_signal Sys.sigprof (Sys.Signal_handle handler);
  ignore (Unix.setitimer Unix.ITIMER_PROF (timer interval))

let stop () =
  ignore (Unix.setitimer Unix.ITIMER_PROF (timer 0.0));
  Sys.set_signal Sys.sigprof Sys.Signal_default;
  cpu_s := cpu_now () -. !cpu_start

(* The stack a sample books, innermost first, from the names its frames
   resolve to. The handler's own frames and the nameless frames around
   them are dropped. A nameless frame directly below the handler is the
   interrupted function itself, which has no name at the poll point where
   the signal was taken: the sample tops the row [? (in a callee of X)],
   X being the first named frame under it, rather than counting as self
   time of X. *)
let attribute names =
  let own n = String.starts_with ~prefix:"Dsm_prof__Sampler." n in
  (* [interrupted]: a nameless frame has been seen since the last own
     frame *)
  let rec strip interrupted = function
    | n :: rest when own n -> strip false rest
    | "?" :: rest -> strip true rest
    | l -> (interrupted, l)
  in
  match strip false names with
  | true, (caller :: _ as l) -> ("? (in a callee of " ^ caller ^ ")") :: l
  | true, [] -> [ "?" ]
  | false, l -> l

(* Function names of a raw stack, innermost first; inlined calls expand
   to one name each. *)
let names cache rb =
  let slot_names e =
    match Hashtbl.find_opt cache e with
    | Some n -> n
    | None ->
        let n =
          match Printexc.backtrace_slots_of_raw_entry e with
          | None -> [ "?" ]
          | Some slots ->
              Array.to_list
                (Array.map
                   (fun s ->
                     Option.value ~default:"?" (Printexc.Slot.name s))
                   slots)
        in
        Hashtbl.replace cache e n;
        n
  in
  attribute
    (List.concat_map slot_names
       (Array.to_list (Printexc.raw_backtrace_entries rb)))

type row = { name : string; incl : int; self : int }

(* The booked stacks of the samples taken, innermost first; empty ones
   (a sample of the handler alone) are dropped. *)
let stacks () =
  let cache = Hashtbl.create 1024 in
  List.filter_map
    (fun rb -> match names cache rb with [] -> None | l -> Some l)
    !samples

let rows_of stacks =
  let rows : (string, row) Hashtbl.t = Hashtbl.create 1024 in
  let bump name ~self =
    let r =
      Option.value
        ~default:{ name; incl = 0; self = 0 }
        (Hashtbl.find_opt rows name)
    in
    Hashtbl.replace rows name
      { r with incl = r.incl + 1; self = (r.self + if self then 1 else 0) }
  in
  List.iter
    (function
      | [] -> ()
      | top :: _ as stack ->
          (* a recursive function counts once per sample *)
          List.iter
            (fun n -> bump n ~self:(String.equal n top))
            (List.sort_uniq compare stack))
    stacks;
  Hashtbl.fold (fun _ r acc -> r :: acc) rows []

let path_depth = 4
let top_paths = 20

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

(* Samples per call path, the innermost [path_depth] frames of a booked
   stack, most sampled first, ties in path order. A flat row such as
   [? (in a callee of Stdlib__Array.iter)] cannot say which caller it
   sits under; its paths can. *)
let paths stacks =
  let counts : (string list, int) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun stack ->
      let key = take path_depth stack in
      Hashtbl.replace counts key
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
    stacks;
  List.sort
    (fun (pa, a) (pb, b) -> match compare b a with 0 -> compare pa pb | c -> c)
    (Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts [])

let pct total n =
  if total > 0 then 100.0 *. float_of_int n /. float_of_int total else 0.0

let pp_top ppf ~by rows total =
  let rows =
    List.sort
      (fun a b ->
        match compare (by b) (by a) with 0 -> compare a.name b.name | c -> c)
      rows
  in
  List.iteri
    (fun i r ->
      if i < 25 && by r > 0 then
        Format.fprintf ppf "%8d %6.1f%% %8d %6.1f%%  %s@," r.incl
          (pct total r.incl) r.self (pct total r.self) r.name)
    rows

let header ~samples ~cpu_s =
  let every =
    if samples = 0 then "none taken"
    else
      Printf.sprintf "one per %.1f ms" (1e3 *. cpu_s /. float_of_int samples)
  in
  Printf.sprintf
    "%d stack samples in %.2f s of CPU: %s (SIGPROF, asked every %.0f ms)."
    samples cpu_s every (1e3 *. interval)

let pp ppf () =
  let stacks = stacks () and total = List.length !samples in
  let rows = rows_of stacks in
  Format.fprintf ppf
    "@[<v>%s@,\
     OCaml 5 delivers signals at poll points, so self samples lean toward@,\
     functions that loop or allocate.@,"
    (header ~samples:total ~cpu_s:!cpu_s);
  let header what =
    Format.fprintf ppf "%8s %7s %8s %7s  %s@," "incl" "%" "self" "%"
      ("function (top 25 by " ^ what ^ " samples)")
  in
  header "inclusive";
  pp_top ppf ~by:(fun r -> r.incl) rows total;
  header "self";
  pp_top ppf ~by:(fun r -> r.self) rows total;
  Format.fprintf ppf "%8s %7s  call path (top %d, innermost %d frames, \
                      innermost first)@,"
    "samples" "%" top_paths path_depth;
  List.iteri
    (fun i (path, n) ->
      if i < top_paths then
        Format.fprintf ppf "%8d %6.1f%%  %s@," n (pct total n)
          (String.concat " <- " path))
    (paths stacks);
  Format.fprintf ppf "@]"
