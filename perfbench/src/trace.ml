(* In-memory span recorder for the traced runs. Spans are recorded by
   the benchmark around its own calls into the program's layers and
   kept until the run ends; nothing is written while measuring. *)

type span = {
  id : int;
  name : string;
  start : float;  (** seconds, [Unix.gettimeofday] *)
  stop : float;
  parent : int option;
  rid : int;  (** request or cell the span worked for *)
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next : int;
  lock : Mutex.t;
}

let create () = { spans = []; next = 0; lock = Mutex.create () }

let add t ~name ~start ~stop ?parent ~rid () =
  Mutex.lock t.lock;
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; name; start; stop; parent; rid } :: t.spans;
  Mutex.unlock t.lock;
  id

(* Open a span, run [f id], close it. The id is handed to [f] so nested
   calls can name their parent. *)
let with_ t ?parent ~rid name f =
  Mutex.lock t.lock;
  let id = t.next in
  t.next <- id + 1;
  Mutex.unlock t.lock;
  let start = Unix.gettimeofday () in
  let finish () =
    let stop = Unix.gettimeofday () in
    Mutex.lock t.lock;
    t.spans <- { id; name; start; stop; parent; rid } :: t.spans;
    Mutex.unlock t.lock
  in
  match f id with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let spans t = List.rev t.spans

let duration s = s.stop -. s.start

(* Total length of the union of [intervals], each clipped to
   [[lo, hi]] — overlapping children (parallel work) count once. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* A span's self time: its duration minus the part of its interval
   that its direct children cover. Returned as (span, self seconds). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  let kids p = Option.value ~default:[] (Hashtbl.find_opt children p) in
  List.iter
    (fun s ->
      Option.iter
        (fun p -> Hashtbl.replace children p ((s.start, s.stop) :: kids p))
        s.parent)
    spans;
  List.map (fun s -> (s, duration s -. covered ~lo:s.start ~hi:s.stop (kids s.id))) spans

(* Durations (seconds) of every span called [name]. *)
let durations spans ~name =
  Array.of_list
    (List.filter_map
       (fun s -> if s.name = name then Some (duration s) else None)
       spans)
