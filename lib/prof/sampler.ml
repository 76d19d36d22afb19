(* A statistical call-stack profile of the host process: a SIGPROF
   interval timer fires every [interval] seconds of CPU time, and its
   handler records the OCaml call stack. Stacks are recorded raw and
   resolved to function names only when the report is printed. *)

let interval = 0.001
let max_frames = 256
let samples : Printexc.raw_backtrace list ref = ref []
let handler _ = samples := Printexc.get_callstack max_frames :: !samples

let timer v = { Unix.it_interval = v; it_value = v }

let start () =
  samples := [];
  Sys.set_signal Sys.sigprof (Sys.Signal_handle handler);
  ignore (Unix.setitimer Unix.ITIMER_PROF (timer interval))

let stop () =
  ignore (Unix.setitimer Unix.ITIMER_PROF (timer 0.0));
  Sys.set_signal Sys.sigprof Sys.Signal_default

(* Function names of a stack, innermost first, with the handler's own
   frames and the nameless callback boundary below them dropped; inlined
   calls expand to one name each. *)
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
  let all =
    List.concat_map slot_names
      (Array.to_list (Printexc.raw_backtrace_entries rb))
  in
  let own n = n = "?" || String.starts_with ~prefix:"Dsm_prof__Sampler." n in
  let rec drop = function n :: rest when own n -> drop rest | l -> l in
  drop all

type row = { name : string; incl : int; self : int }

let report () =
  let cache = Hashtbl.create 1024 in
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
    (fun rb ->
      match names cache rb with
      | [] -> ()
      | top :: _ as stack ->
          (* a recursive function counts once per sample *)
          List.iter
            (fun n -> bump n ~self:(String.equal n top))
            (List.sort_uniq compare stack))
    !samples;
  Hashtbl.fold (fun _ r acc -> r :: acc) rows []

let pp_top ppf ~by rows total =
  let rows =
    List.sort
      (fun a b ->
        match compare (by b) (by a) with 0 -> compare a.name b.name | c -> c)
      rows
  in
  let pct n =
    if total > 0 then 100.0 *. float_of_int n /. float_of_int total else 0.0
  in
  List.iteri
    (fun i r ->
      if i < 25 && by r > 0 then
        Format.fprintf ppf "%8d %6.1f%% %8d %6.1f%%  %s@," r.incl (pct r.incl)
          r.self (pct r.self) r.name)
    rows

let pp ppf () =
  let rows = report () and total = List.length !samples in
  Format.fprintf ppf
    "@[<v>%d stack samples, one per %.0f ms of CPU (SIGPROF). OCaml 5 \
     delivers signals at poll points,@,\
     so self samples lean toward functions that loop or allocate.@,"
    total (1e3 *. interval);
  let header what =
    Format.fprintf ppf "%8s %7s %8s %7s  %s@," "incl" "%" "self" "%"
      ("function (top 25 by " ^ what ^ " samples)")
  in
  header "inclusive";
  pp_top ppf ~by:(fun r -> r.incl) rows total;
  header "self";
  pp_top ppf ~by:(fun r -> r.self) rows total;
  Format.fprintf ppf "@]"
