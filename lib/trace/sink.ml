(* Lossless, append-only event log.

   The run-time holds [Sink.t option]; every instrumentation site guards on
   it before building an event, so a disabled trace costs one pointer
   comparison and allocates nothing. When enabled, emission appends to one
   log in emission order and never touches the simulated clocks or
   statistics, so tracing cannot perturb the cost model.

   An event's id is its index in the log. The sink owns every vector-clock
   snapshot: it copies the emitter's live clock only when it differs from
   that processor's previous snapshot, and otherwise shares that snapshot.
   Snapshots are never written after emission. *)

type t = {
  nprocs : int;
  mutable log : Event.t array;  (* [log.(0 .. n - 1)] are the events *)
  mutable n : int;
  last_vc : int array array;  (* each processor's newest snapshot *)
}

let default_capacity = 1 lsl 16

let filler =
  { Event.id = -1; proc = -1; time = 0.0; vc = [||]; kind = Twin { page = -1 } }

let create ?(capacity = default_capacity) ~nprocs () =
  if capacity <= 0 then invalid_arg "Sink.create: capacity must be positive";
  {
    nprocs;
    log = Array.make capacity filler;
    n = 0;
    last_vc = Array.make nprocs [||];
  }

let nprocs t = t.nprocs
let capacity t = Array.length t.log

let same_clock a b =
  let n = Array.length b in
  Array.length a = n
  &&
  let i = ref 0 in
  while !i < n && a.(!i) = b.(!i) do
    incr i
  done;
  !i = n

(* [proc]'s previous snapshot if it equals [vc], else a fresh copy of
   [vc] that becomes the previous snapshot. *)
let snapshot t proc vc =
  let prev = t.last_vc.(proc) in
  if same_clock prev vc then prev
  else begin
    let s = Array.copy vc in
    t.last_vc.(proc) <- s;
    s
  end

let emit t ~proc ~time ~vc kind =
  Dsm_prof.Prof.tick Dsm_prof.Prof.Trace;
  let id = t.n in
  if id = Array.length t.log then begin
    let log = Array.make (2 * id) filler in
    Array.blit t.log 0 log 0 id;
    t.log <- log
  end;
  t.log.(id) <- { Event.id; proc; time; vc = snapshot t proc vc; kind };
  t.n <- id + 1

let emitted t = t.n
let dropped _ = 0

(* The log's events whose processor satisfies [keep], in emission order. *)
let collect t keep =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    let e = t.log.(i) in
    if keep e.Event.proc then acc := e :: !acc
  done;
  !acc

let proc_events t p = collect t (fun q -> q = p)
let events t = collect t (fun _ -> true)

let write_jsonl oc t =
  for i = 0 to t.n - 1 do
    output_string oc (Event.to_json t.log.(i));
    output_char oc '\n'
  done
