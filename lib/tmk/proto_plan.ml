(* Versioned protocol-placement plans: the artifact that closes the
   compile-time -> run-time loop. [dsm_lint plan] writes one from the
   static sharing-pattern classifier; [dsm_run --plan] loads it and seeds
   the adaptive backend's initial per-page classification (and the HLRC
   home map) before the first access, replacing the first-touch /
   LRC-default warm-up with the compiler's prediction.

   The format is JSONL so plans stream, diff and grep like traces do: a
   header object identifying the plan and its generation parameters,
   then one flat object per directive. Page numbers are absolute (the
   simulated bump allocator is deterministic, so compile time and run
   time agree on the layout); [hi_page] is inclusive. *)

module Jflat = Dsm_util.Jflat
module Plan = Dsm_net.Plan
module Pset = Dsm_util.Pset

let magic = "dsm-protocol-plan"
let version = 1
let window = 2

type proto = Lrc | Hlrc | Inval

let proto_name = function Lrc -> "lrc" | Hlrc -> "hlrc" | Inval -> "inval"

(* One classification window's decision, for the online classifier and
   the static one alike. *)
let decide ~readers ~writers ~lrc_owner =
  let users = Pset.union readers writers in
  let nw = Pset.cardinal writers in
  if nw = 0 then None
  else if nw = 1 && Pset.equal users writers then
    Some (Inval, Pset.min_elt writers)
  else if nw = 1 then Some (Hlrc, Pset.min_elt writers)
  else Some (Lrc, lrc_owner)

let proto_of_string = function
  | "lrc" -> Some Lrc
  | "hlrc" -> Some Hlrc
  | "inval" -> Some Inval
  | _ -> None

type confidence = Exact | Inexact

let confidence_name = function Exact -> "exact" | Inexact -> "inexact"

type directive = {
  array : string;  (** array the page range belongs to (documentation) *)
  lo_page : int;
  hi_page : int;  (** inclusive *)
  proto : proto;
  owner : int;  (** home (hlrc) / holder (inval); -1 under lrc *)
  confidence : confidence;
  reason : string;  (** classifier taxonomy bucket, for humans *)
  est_lrc : float;  (** cost model: estimated msgs/epoch per candidate *)
  est_hlrc : float;
  est_inval : float;
}

type t = {
  program : string;
  nprocs : int;
  page_size : int;
  level : string;  (** transformation level the summaries came from *)
  directives : directive list;
}

(* {1 Validation}

   Every message follows {!Dsm_net.Plan.field_error}'s
   "field: value outside accepted range" shape, so plan schema
   violations read like every other rejected configuration knob. *)

let validate t =
  let err field value range =
    Error (Plan.field_error ~field ~value ~range)
  in
  if t.nprocs < 1 then
    err "nprocs" (string_of_int t.nprocs) "[1, max_int]"
  else if t.page_size < 1 then
    err "page_size" (string_of_int t.page_size) "[1, max_int]"
  else
    let rec check = function
      | [] -> Ok t
      | d :: rest ->
          if d.lo_page < 0 then
            err "lo_page" (string_of_int d.lo_page) "[0, max_int]"
          else if d.hi_page < d.lo_page then
            err "hi_page" (string_of_int d.hi_page)
              (Printf.sprintf "[%d, max_int]" d.lo_page)
          else if d.proto = Lrc && d.owner <> -1 then
            err "owner" (string_of_int d.owner) "{-1} under lrc"
          else if d.proto <> Lrc && not (d.owner >= 0 && d.owner < t.nprocs)
          then
            err "owner" (string_of_int d.owner)
              (Printf.sprintf "[0, %d]" (t.nprocs - 1))
          else check rest
    in
    check t.directives

(* {1 Serialization} *)

let header_json t =
  Printf.sprintf
    "{\"plan\":%S,\"version\":%d,\"program\":%S,\"nprocs\":%d,\"page_size\":%d,\"level\":%S,\"directives\":%d}"
    magic version t.program t.nprocs t.page_size t.level
    (List.length t.directives)

let directive_json d =
  Printf.sprintf
    "{\"array\":%S,\"lo_page\":%d,\"hi_page\":%d,\"proto\":%S,\"owner\":%d,\"confidence\":%S,\"reason\":%S,\"est_lrc\":%g,\"est_hlrc\":%g,\"est_inval\":%g}"
    d.array d.lo_page d.hi_page (proto_name d.proto) d.owner
    (confidence_name d.confidence)
    d.reason d.est_lrc d.est_hlrc d.est_inval

let write oc t =
  output_string oc (header_json t);
  output_char oc '\n';
  List.iter
    (fun d ->
      output_string oc (directive_json d);
      output_char oc '\n')
    t.directives

let save path t =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc t)

(* {1 Parsing} *)

let parse_directive f =
  let proto_s = Jflat.str f "proto" in
  let proto =
    match proto_of_string proto_s with
    | Some p -> p
    | None ->
        raise
          (Jflat.Parse_error
             (Plan.field_error ~field:"proto" ~value:proto_s
                ~range:"{lrc, hlrc, inval}"))
  in
  let conf_s = Jflat.str f "confidence" in
  let confidence =
    match conf_s with
    | "exact" -> Exact
    | "inexact" -> Inexact
    | _ ->
        raise
          (Jflat.Parse_error
             (Plan.field_error ~field:"confidence" ~value:conf_s
                ~range:"{exact, inexact}"))
  in
  {
    array = Jflat.str f "array";
    lo_page = Jflat.int f "lo_page";
    hi_page = Jflat.int f "hi_page";
    proto;
    owner = Jflat.int f "owner";
    confidence;
    reason = Jflat.str f "reason";
    est_lrc = Jflat.num f "est_lrc";
    est_hlrc = Jflat.num f "est_hlrc";
    est_inval = Jflat.num f "est_inval";
  }

let of_lines lines =
  match lines with
  | [] -> Error "empty plan file"
  | header :: rest -> (
      try
        let h = Jflat.parse_exn header in
        let m = Jflat.str h "plan" in
        if m <> magic then
          Error
            (Plan.field_error ~field:"plan" ~value:(Printf.sprintf "%S" m)
               ~range:(Printf.sprintf "{%S}" magic))
        else
          let v = Jflat.int h "version" in
          if v <> version then
            Error
              (Plan.field_error ~field:"version" ~value:(string_of_int v)
                 ~range:(Printf.sprintf "{%d}" version))
          else
            let count = Jflat.int h "directives" in
            let directives =
              List.map (fun l -> parse_directive (Jflat.parse_exn l)) rest
            in
            if List.length directives <> count then
              Error
                (Plan.field_error ~field:"directives"
                   ~value:(string_of_int (List.length directives))
                   ~range:(Printf.sprintf "{%d}" count))
            else
              validate
                {
                  program = Jflat.str h "program";
                  nprocs = Jflat.int h "nprocs";
                  page_size = Jflat.int h "page_size";
                  level = Jflat.str h "level";
                  directives;
                }
      with Jflat.Parse_error msg -> Error msg)

let load path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line -> go (if String.trim line = "" then acc else line :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  with
  | lines -> of_lines lines
  | exception Sys_error msg -> Error msg

(* {1 Reporting helpers} *)

let n_pages t =
  List.fold_left (fun n d -> n + (d.hi_page - d.lo_page + 1)) 0 t.directives

let exact_directives t =
  List.filter (fun d -> d.confidence = Exact) t.directives

(* Directive covering [page], if any (first match; the classifier emits
   disjoint ranges). *)
let find t page =
  List.find_opt (fun d -> d.lo_page <= page && page <= d.hi_page) t.directives
