type section =
  | Engine
  | Protocol
  | Sync
  | Diff_create
  | Diff_apply
  | Vc
  | Net
  | Trace

let n_sections = 8

let index = function
  | Engine -> 0
  | Protocol -> 1
  | Sync -> 2
  | Diff_create -> 3
  | Diff_apply -> 4
  | Vc -> 5
  | Net -> 6
  | Trace -> 7

let section_name = function
  | Engine -> "engine+app"
  | Protocol -> "protocol"
  | Sync -> "sync"
  | Diff_create -> "diff-create"
  | Diff_apply -> "diff-apply"
  | Vc -> "vc"
  | Net -> "net"
  | Trace -> "trace-sink"

(* The extra slot absorbs slices when no span is open. *)
let unattributed = n_sections

let enabled = ref false

let max_depth = 64
let calls = Array.make (n_sections + 1) 0
let ops = Array.make (n_sections + 1) 0
let self_s = Array.make (n_sections + 1) 0.0
let alloc_w = Array.make (n_sections + 1) 0.0
let stack = Array.make max_depth 0
let depth = ref 0
let slice_start = ref (Unix.gettimeofday ())
let slice_alloc = ref (Gc.minor_words ())

let enabled_at = ref 0.0
let total_s = ref 0.0

let reset () =
  let now = Unix.gettimeofday () in
  Array.fill calls 0 (n_sections + 1) 0;
  Array.fill ops 0 (n_sections + 1) 0;
  Array.fill self_s 0 (n_sections + 1) 0.0;
  Array.fill alloc_w 0 (n_sections + 1) 0.0;
  depth := 0;
  slice_start := now;
  slice_alloc := Gc.minor_words ();
  total_s := 0.0;
  enabled_at := now

let enable () =
  reset ();
  enabled := true

(* Charge the open slice to the innermost open section and start a new
   slice at [now]. *)
let charge_slice now aw =
  let top = if !depth = 0 then unattributed else stack.(!depth - 1) in
  self_s.(top) <- self_s.(top) +. (now -. !slice_start);
  alloc_w.(top) <- alloc_w.(top) +. (aw -. !slice_alloc);
  slice_start := now;
  slice_alloc := aw

let disable () =
  if !enabled then begin
    let now = Unix.gettimeofday () in
    charge_slice now (Gc.minor_words ());
    total_s := now -. !enabled_at;
    enabled := false
  end

let enter_on s =
  let i = index s in
  charge_slice (Unix.gettimeofday ()) (Gc.minor_words ());
  if !depth < max_depth then begin
    stack.(!depth) <- i;
    incr depth
  end

let[@inline] enter s = if !enabled then enter_on s

let exit_on s =
  let i = index s in
  charge_slice (Unix.gettimeofday ()) (Gc.minor_words ());
  (* pop until the matching section is popped: spans abandoned by an
     exception unwind are closed here, keeping the stack consistent *)
  let rec pop () =
    if !depth > 0 then begin
      decr depth;
      let top = stack.(!depth) in
      calls.(top) <- calls.(top) + 1;
      if top <> i then pop ()
    end
  in
  pop ()

let[@inline] exit s = if !enabled then exit_on s

let[@inline] tick s =
  if !enabled then begin
    let i = index s in
    ops.(i) <- ops.(i) + 1
  end

let span s f =
  if not !enabled then f ()
  else begin
    enter s;
    Fun.protect ~finally:(fun () -> exit s) f
  end

type row = {
  name : string;
  calls : int;
  ops : int;
  self_s : float;
  alloc_mw : float;
}

let all_sections =
  [ Engine; Protocol; Sync; Diff_create; Diff_apply; Vc; Net; Trace ]

let report () =
  (* a live profile (still enabled) reports up to the current instant *)
  if !enabled then begin
    let now = Unix.gettimeofday () in
    charge_slice now (Gc.minor_words ());
    total_s := now -. !enabled_at
  end;
  let rows =
    List.filter_map
      (fun s ->
        let i = index s in
        if calls.(i) = 0 && ops.(i) = 0 && self_s.(i) = 0.0 then None
        else
          Some
            {
              name = section_name s;
              calls = calls.(i);
              ops = ops.(i);
              self_s = self_s.(i);
              alloc_mw = alloc_w.(i) /. 1e6;
            })
      all_sections
  in
  let rows =
    if self_s.(unattributed) > 0.0 then
      rows
      @ [
          {
            name = "(unattributed)";
            calls = 0;
            ops = 0;
            self_s = self_s.(unattributed);
            alloc_mw = alloc_w.(unattributed) /. 1e6;
          };
        ]
    else rows
  in
  (rows, !total_s)

let pp_table ppf () =
  let rows, total = report () in
  let pct s = if total > 0.0 then 100.0 *. s /. total else 0.0 in
  Format.fprintf ppf "@[<v>%-16s %10s %12s %10s %7s %12s@,"
    "subsystem" "spans" "ops" "self(ms)" "%" "alloc(Mw)";
  Format.fprintf ppf "%s@," (String.make 70 '-');
  List.iter
    (fun r ->
      Format.fprintf ppf "%-16s %10d %12d %10.1f %6.1f%% %12.2f@," r.name
        r.calls r.ops (1e3 *. r.self_s) (pct r.self_s) r.alloc_mw)
    rows;
  Format.fprintf ppf "%s@," (String.make 70 '-');
  Format.fprintf ppf "%-16s %10s %12s %10.1f %6.1f%%@]" "total" "" ""
    (1e3 *. total) 100.0

let to_json () =
  let rows, total = report () in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\"total_s\":";
  Buffer.add_string buf (Printf.sprintf "%.6f" total);
  Buffer.add_string buf ",\"sections\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":%S,\"calls\":%d,\"ops\":%d,\"self_s\":%.6f,\"alloc_mw\":%.3f}"
           r.name r.calls r.ops r.self_s r.alloc_mw))
    rows;
  Buffer.add_string buf "]}";
  Buffer.contents buf
