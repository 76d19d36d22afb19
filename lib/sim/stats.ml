type t = {
  mutable messages : int;
  mutable bytes : int;
  mutable segv : int;
  mutable mprotects : int;
  mutable twins : int;
  mutable diffs_created : int;
  mutable diffs_applied : int;
  mutable diff_bytes_applied : int;
  mutable lock_acquires : int;
  mutable barriers : int;
  mutable validates : int;
  mutable pushes : int;
  mutable broadcasts : int;
  mutable retransmits : int;
  mutable timeouts : int;
  mutable dropped : int;
  mutable duplicates : int;
  mutable home_flushes : int;
  mutable home_flush_bytes : int;
  mutable home_fetches : int;
  mutable home_fetch_bytes : int;
  mutable invals : int;
  mutable downgrades : int;
  mutable proto_switches : int;
  mutable obj_skips : int;
  mutable crashes : int;
  mutable restarts : int;
  mutable suspects : int;
  mutable quorum_writes : int;
  mutable quorum_reads : int;
  mutable ckpts : int;
}

let create () =
  {
    messages = 0;
    bytes = 0;
    segv = 0;
    mprotects = 0;
    twins = 0;
    diffs_created = 0;
    diffs_applied = 0;
    diff_bytes_applied = 0;
    lock_acquires = 0;
    barriers = 0;
    validates = 0;
    pushes = 0;
    broadcasts = 0;
    retransmits = 0;
    timeouts = 0;
    dropped = 0;
    duplicates = 0;
    home_flushes = 0;
    home_flush_bytes = 0;
    home_fetches = 0;
    home_fetch_bytes = 0;
    invals = 0;
    downgrades = 0;
    proto_switches = 0;
    obj_skips = 0;
    crashes = 0;
    restarts = 0;
    suspects = 0;
    quorum_writes = 0;
    quorum_reads = 0;
    ckpts = 0;
  }

type counter = { name : string; get : t -> int; set : t -> int -> unit }

(* The one description of the counters, in field order: everything below
   is a fold over it. *)
let counters =
  let c name get set = { name; get; set } in
  [
    c "messages" (fun t -> t.messages) (fun t v -> t.messages <- v);
    c "bytes" (fun t -> t.bytes) (fun t v -> t.bytes <- v);
    c "segv" (fun t -> t.segv) (fun t v -> t.segv <- v);
    c "mprotects" (fun t -> t.mprotects) (fun t v -> t.mprotects <- v);
    c "twins" (fun t -> t.twins) (fun t v -> t.twins <- v);
    c "diffs_created" (fun t -> t.diffs_created) (fun t v ->
        t.diffs_created <- v);
    c "diffs_applied" (fun t -> t.diffs_applied) (fun t v ->
        t.diffs_applied <- v);
    c "diff_bytes_applied" (fun t -> t.diff_bytes_applied) (fun t v ->
        t.diff_bytes_applied <- v);
    c "lock_acquires" (fun t -> t.lock_acquires) (fun t v ->
        t.lock_acquires <- v);
    c "barriers" (fun t -> t.barriers) (fun t v -> t.barriers <- v);
    c "validates" (fun t -> t.validates) (fun t v -> t.validates <- v);
    c "pushes" (fun t -> t.pushes) (fun t v -> t.pushes <- v);
    c "broadcasts" (fun t -> t.broadcasts) (fun t v -> t.broadcasts <- v);
    c "retransmits" (fun t -> t.retransmits) (fun t v -> t.retransmits <- v);
    c "timeouts" (fun t -> t.timeouts) (fun t v -> t.timeouts <- v);
    c "dropped" (fun t -> t.dropped) (fun t v -> t.dropped <- v);
    c "duplicates" (fun t -> t.duplicates) (fun t v -> t.duplicates <- v);
    c "home_flushes" (fun t -> t.home_flushes) (fun t v ->
        t.home_flushes <- v);
    c "home_flush_bytes" (fun t -> t.home_flush_bytes) (fun t v ->
        t.home_flush_bytes <- v);
    c "home_fetches" (fun t -> t.home_fetches) (fun t v ->
        t.home_fetches <- v);
    c "home_fetch_bytes" (fun t -> t.home_fetch_bytes) (fun t v ->
        t.home_fetch_bytes <- v);
    c "invals" (fun t -> t.invals) (fun t v -> t.invals <- v);
    c "downgrades" (fun t -> t.downgrades) (fun t v -> t.downgrades <- v);
    c "proto_switches" (fun t -> t.proto_switches) (fun t v ->
        t.proto_switches <- v);
    c "obj_skips" (fun t -> t.obj_skips) (fun t v -> t.obj_skips <- v);
    c "crashes" (fun t -> t.crashes) (fun t v -> t.crashes <- v);
    c "restarts" (fun t -> t.restarts) (fun t v -> t.restarts <- v);
    c "suspects" (fun t -> t.suspects) (fun t v -> t.suspects <- v);
    c "quorum_writes" (fun t -> t.quorum_writes) (fun t v ->
        t.quorum_writes <- v);
    c "quorum_reads" (fun t -> t.quorum_reads) (fun t v ->
        t.quorum_reads <- v);
    c "ckpts" (fun t -> t.ckpts) (fun t v -> t.ckpts <- v);
  ]

let find name = List.find (fun c -> c.name = name) counters
let add acc x = List.iter (fun c -> c.set acc (c.get acc + c.get x)) counters

let total arr =
  let acc = create () in
  Array.iter (add acc) arr;
  acc

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ' ')
    (fun ppf c -> Format.fprintf ppf "%s=%d" c.name (c.get t))
    ppf
    (List.filter (fun c -> c.get t <> 0) counters)
