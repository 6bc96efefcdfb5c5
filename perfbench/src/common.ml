(* Pieces shared by the workloads: clocks, the run result, output. *)

let now = Unix.gettimeofday

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;  (** observations behind [value] *)
  note : string;  (** e.g. which percentile a tail is; may be empty *)
}

let metric ?(note = "") ~samples name unit_ value =
  { name; value; unit_; samples; note }

type check = { what : string; ok : bool; detail : string }

type run_result = {
  checks : check list;
  tally : Stats.tally;
  metrics : metric list;
}

let check what ok detail = { what; ok; detail }

(* Peak resident set of this process, from /proc; the major heap's
   peak when /proc is unavailable. *)
let peak_mem_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> Some (float_of_int kb /. 1024.))
          | _ -> scan ()
          | exception End_of_file -> None
        in
        scan ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Full precision, and always a valid JSON number. *)
let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let ms s = s *. 1000.

(* A seed reserved for confirming a claimed gain; never used while
   tuning the benchmark or a change. *)
let held_out_seed = 900_001

(* The seed the workloads draw their task sets from. Routine seeds
   share one fixed catalogue (2005, the seed [Fig6a.paper_config]
   uses), because per-run draws differ so much in cost and quality
   that they would swamp every figure; the held-out seed draws a
   catalogue of its own, so a gain confirmed on it is confirmed on
   task sets the change was not fitted to. *)
let catalogue_seed ~seed = if seed = held_out_seed then held_out_seed else 2005

(* Set-up, timed in this process: [reps] times, [set_up ()] does
   everything between start and accepting traffic, and [tear_down]
   releases what it made, untimed. A single set-up is a few hundred
   microseconds to a few milliseconds, mostly domain spawn and, on a
   warm start, the cache load; the median of many rests on enough
   repetitions to hold still. Returns the set-up times (seconds) and
   what each [set_up] returned alongside its resources. *)
let time_set_up ~reps ~set_up ~tear_down =
  let one () =
    let t0 = now () in
    let made, extra = set_up () in
    let t1 = now () in
    tear_down made;
    (t1 -. t0, extra)
  in
  let runs = Array.init reps (fun _ -> one ()) in
  (Array.map fst runs, Array.map snd runs)

(* One measured window of a run: the units completed in it, its length
   and its units' latencies, in seconds. *)
type window = { completed : int; elapsed : float; latencies : float array }

(* The timing and accounting metrics every workload reports, from its
   set-up times, its measured windows and its unit accounting. When a
   run has several windows (serve-warm's daemon lifetimes), each rate
   and latency figure is the median of the windows' figures: pooled,
   the top percent of the latencies came mostly from whichever window
   the machine happened to slow, and the tail moved with it. *)
let timing_metrics ~setup ~(tally : Stats.tally) windows =
  let median_of f = Stats.median (Array.of_list (List.map f windows)) in
  let lat_ms w = Array.map ms w.latencies in
  let all_ms = Array.concat (List.map lat_ms windows) in
  let n = Array.length all_ms in
  let tails = List.map (fun w -> Stats.tail (lat_ms w)) windows in
  [ metric ~samples:(Array.length setup) "setup_s" "s" (Stats.median setup);
    metric ~samples:n "throughput_per_s" "1/s"
      (median_of (fun w -> float_of_int w.completed /. w.elapsed));
    metric ~samples:n
      ~note:
        (let q1, _, q3 = Stats.quartiles all_ms in
         Printf.sprintf "quartiles %.3f .. %.3f ms" q1 q3)
      "latency_p50_ms" "ms"
      (median_of (fun w -> Stats.median (lat_ms w)));
    metric ~samples:n
      ~note:
        (String.concat "; "
           (List.map
              (fun (t : Stats.tail) ->
                Printf.sprintf "p%d, %d samples beyond" t.Stats.pct t.Stats.beyond)
              tails))
      "latency_tail_ms" "ms"
      (Stats.median (Array.of_list (List.map (fun (t : Stats.tail) -> t.Stats.value) tails)));
    metric ~samples:n "completed_share" "share" (1. -. Stats.failed_share tally) ]
