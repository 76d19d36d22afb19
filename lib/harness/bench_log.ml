type entry = {
  e_name : string;
  e_wall_ms : float;
  e_alloc_mwords : float;
  e_top_heap_words : int;
  e_digest : string;
}

type t = {
  pr : int;
  label : string;
  quick : bool;
  mutable entries : entry list;  (* reverse order of measurement *)
  mutable prof_invariant : bool option;
  mutable profile : string option;  (* Dsm_prof.Prof.to_json of a profiled run *)
}

let create ~pr ~label ~quick =
  { pr; label; quick; entries = []; prof_invariant = None; profile = None }

let record t e = t.entries <- e :: t.entries

let measure t ~name f =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  (* Words allocated by [f]: minor-heap allocation plus direct major
     allocation (major words less promoted ones). [Gc.quick_stat]'s
     counts move only at collections, so they would depend on the heap's
     state when [f] started; [Gc.minor_words] and [Gc.counters]' major
     and promoted counts are exact to the word. *)
  let _, p0, j0 = Gc.counters () in
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  f ppf;
  Format.pp_print_flush ppf ();
  let t1 = Unix.gettimeofday () in
  let m1 = Gc.minor_words () in
  let _, p1, j1 = Gc.counters () in
  let g1 = Gc.quick_stat () in
  let out = Buffer.contents buf in
  let alloc = m1 -. m0 +. (j1 -. j0) -. (p1 -. p0) in
  record t
    {
      e_name = name;
      e_wall_ms = (t1 -. t0) *. 1000.0;
      e_alloc_mwords = alloc /. 1e6;
      e_top_heap_words = g1.Gc.top_heap_words;
      e_digest = Digest.to_hex (Digest.string out);
    };
  out

let set_prof_invariant t ok = t.prof_invariant <- Some ok
let set_profile t json = t.profile <- Some json
let entries t = List.rev t.entries

(* Best-of-N: keep each experiment's fastest measurement. Wall-clock on a
   busy host is min-stable (noise only ever adds time); digests must not
   disagree between repeats — that would mean nondeterministic simulated
   output, which the comparison gate reports via the surviving entry.
   Allocation takes its own minimum: only a process's first round fills
   the apps' memoized sequential references, so the first round
   allocates more whichever round is faster, and the minimum is the
   round-independent figure. *)
let min_merge a b =
  let pick (ea : entry) =
    match List.find_opt (fun e -> e.e_name = ea.e_name) b.entries with
    | Some eb ->
        let e = if eb.e_wall_ms < ea.e_wall_ms then eb else ea in
        { e with e_alloc_mwords = Float.min ea.e_alloc_mwords eb.e_alloc_mwords }
    | None -> ea
  in
  {
    a with
    entries = List.map pick a.entries;
    profile = (match a.profile with Some _ as p -> p | None -> b.profile);
    prof_invariant =
      (match (a.prof_invariant, b.prof_invariant) with
      | Some x, Some y -> Some (x && y)
      | x, None | None, x -> x);
  }

let total_wall_ms t =
  List.fold_left (fun a e -> a +. e.e_wall_ms) 0.0 t.entries

(* One experiment object per line: {!load} parses line-wise with [Scanf],
   which keeps the reader free of any JSON library dependency. *)
let entry_to_json e =
  Printf.sprintf
    {|    { "name": %S, "wall_ms": %.3f, "alloc_mwords": %.3f, "top_heap_words": %d, "digest": %S }|}
    e.e_name e.e_wall_ms e.e_alloc_mwords e.e_top_heap_words e.e_digest

let to_json t =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"schema\": 1,\n");
  Buffer.add_string b (Printf.sprintf "  \"pr\": %d,\n" t.pr);
  Buffer.add_string b (Printf.sprintf "  \"label\": %S,\n" t.label);
  Buffer.add_string b (Printf.sprintf "  \"quick\": %b,\n" t.quick);
  (match t.prof_invariant with
  | Some ok -> Buffer.add_string b (Printf.sprintf "  \"prof_invariant\": %b,\n" ok)
  | None -> ());
  (match t.profile with
  | Some json -> Buffer.add_string b (Printf.sprintf "  \"profile\": %s,\n" json)
  | None -> ());
  Buffer.add_string b
    (Printf.sprintf "  \"total_wall_ms\": %.3f,\n" (total_wall_ms t));
  Buffer.add_string b "  \"experiments\": [\n";
  let es = entries t in
  List.iteri
    (fun i e ->
      Buffer.add_string b (entry_to_json e);
      if i < List.length es - 1 then Buffer.add_char b ',';
      Buffer.add_char b '\n')
    es;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let write t ~path =
  let oc = open_out path in
  output_string oc (to_json t);
  close_out oc

let load ~path =
  let ic = open_in path in
  let entries = ref [] in
  (try
     while true do
       let line = input_line ic in
       match
         Scanf.sscanf line
           " { \"name\": %S, \"wall_ms\": %f, \"alloc_mwords\": %f, \"top_heap_words\": %d, \"digest\": %S"
           (fun n w a h d ->
             {
               e_name = n;
               e_wall_ms = w;
               e_alloc_mwords = a;
               e_top_heap_words = h;
               e_digest = d;
             })
       with
       | e -> entries := e :: !entries
       | exception Scanf.Scan_failure _ | exception End_of_file -> ()
     done
   with End_of_file -> ());
  close_in ic;
  if !entries = [] then failwith (path ^ ": no benchmark entries found");
  List.rev !entries

let compare_against ppf ~baseline ~current ~tolerance =
  let ok = ref true in
  let matched = ref 0 in
  let base_total = ref 0.0 and cur_total = ref 0.0 in
  Format.fprintf ppf "regression gate (tolerance %+.0f%%):@."
    (tolerance *. 100.0);
  Format.fprintf ppf "  %-12s %10s %10s %8s  %s@." "experiment" "base(ms)"
    "now(ms)" "ratio" "digest";
  List.iter
    (fun (c : entry) ->
      match List.find_opt (fun b -> b.e_name = c.e_name) baseline with
      | None -> ()
      | Some b ->
          incr matched;
          base_total := !base_total +. b.e_wall_ms;
          cur_total := !cur_total +. c.e_wall_ms;
          let ratio = if b.e_wall_ms > 0.0 then c.e_wall_ms /. b.e_wall_ms else 1.0 in
          let same = b.e_digest = c.e_digest in
          let slow = c.e_wall_ms > b.e_wall_ms *. (1.0 +. tolerance) in
          if not same then ok := false;
          (* per-experiment slowdowns are reported but do not gate: short
             experiments are dominated by host noise — only the digest and
             the suite total decide pass/fail *)
          Format.fprintf ppf "  %-12s %10.1f %10.1f %7.2fx  %s%s@." c.e_name
            b.e_wall_ms c.e_wall_ms ratio
            (if same then "same" else "DIFFERENT OUTPUT")
            (if slow then "  slow (not gating)" else ""))
    (entries current);
  if !matched = 0 then begin
    Format.fprintf ppf "  no common experiments with the baseline@.";
    ok := false
  end
  else begin
    let ratio =
      if !base_total > 0.0 then !cur_total /. !base_total else 1.0
    in
    if !cur_total > !base_total *. (1.0 +. tolerance) then ok := false;
    Format.fprintf ppf "  %-12s %10.1f %10.1f %7.2fx@." "total" !base_total
      !cur_total ratio
  end;
  Format.fprintf ppf "  => %s@." (if !ok then "PASS" else "FAIL");
  !ok
