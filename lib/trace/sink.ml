(* Per-processor ring-buffer event sink.

   The run-time holds [Sink.t option]; every instrumentation site guards on
   it before building an event, so a disabled trace costs one pointer
   comparison and allocates nothing. When enabled, emission appends to the
   emitting processor's ring (dropping the oldest events past [capacity])
   and never touches the simulated clocks or statistics, so tracing cannot
   perturb the cost model.

   Each ring and its count are written only by the processor that owns
   them. The global sequence [next_id] numbers events across processors
   in emission order, so the ascending-id merge in [events] reproduces
   the exact event stream of the run. *)

type t = {
  nprocs : int;
  capacity : int;  (* per processor *)
  mask : int;  (* capacity - 1 when a power of two, -1 otherwise *)
  rings : Event.t option array array;
  count : int array;  (* total emitted per processor *)
  mutable next_id : int;
}

let default_capacity = 1 lsl 18

let create ?(capacity = default_capacity) ~nprocs () =
  if capacity <= 0 then invalid_arg "Sink.create: capacity must be positive";
  {
    nprocs;
    capacity;
    mask = (if capacity land (capacity - 1) = 0 then capacity - 1 else -1);
    rings = Array.init nprocs (fun _ -> Array.make capacity None);
    count = Array.make nprocs 0;
    next_id = 0;
  }

let nprocs t = t.nprocs
let capacity t = t.capacity

let emit t ~proc ~time ~vc kind =
  Dsm_prof.Prof.tick Dsm_prof.Prof.Trace;
  let id = t.next_id in
  t.next_id <- id + 1;
  let ring = t.rings.(proc) in
  let c = t.count.(proc) in
  let slot = if t.mask >= 0 then c land t.mask else c mod t.capacity in
  ring.(slot) <- Some { Event.id; proc; time; vc; kind };
  t.count.(proc) <- c + 1

let emitted t = Array.fold_left ( + ) 0 t.count

let dropped_of t p = max 0 (t.count.(p) - t.capacity)
let dropped t =
  let d = ref 0 in
  for p = 0 to t.nprocs - 1 do
    d := !d + dropped_of t p
  done;
  !d

(* Surviving events of one processor, oldest first. *)
let proc_events t p =
  let n = min t.count.(p) t.capacity in
  let start = t.count.(p) - n in
  List.init n (fun i ->
      match t.rings.(p).((start + i) mod t.capacity) with
      | Some e -> e
      | None -> assert false)

(* All surviving events in global emission order (ascending id). *)
let events t =
  let all = ref [] in
  for p = t.nprocs - 1 downto 0 do
    all := proc_events t p :: !all
  done;
  List.concat !all
  |> List.sort (fun (a : Event.t) (b : Event.t) -> compare a.id b.id)

let clear t =
  Array.iter (fun ring -> Array.fill ring 0 t.capacity None) t.rings;
  Array.fill t.count 0 t.nprocs 0;
  t.next_id <- 0

let write_jsonl oc t =
  List.iter
    (fun e ->
      output_string oc (Event.to_json e);
      output_char oc '\n')
    (events t)
