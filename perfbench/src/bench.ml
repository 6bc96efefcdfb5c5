(* The benchmark's one command:

     bench --workload serve-cold|serve-warm|sweep-cells --seed N
           --seconds S --trace 0|1

   With --trace 0 it measures the end-to-end metrics with tracing off;
   with --trace 1 it prints the per-layer metrics of a traced run.
   Either way it checks the program's outputs, prints one metadata line
   and then, as its last line, the result object. Exit status 0 when
   every check passed, 1 when one failed, 2 on bad arguments. *)

open Common

let workloads = [ "serve-cold"; "serve-warm"; "sweep-cells" ]

let usage () =
  prerr_endline
    "usage: bench --workload serve-cold|serve-warm|sweep-cells --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec go = function
    | "--workload" :: w :: rest when List.mem w workloads ->
      workload := Some w;
      go rest
    | "--seed" :: s :: rest ->
      seed := int_of_string_opt s;
      go rest
    | "--seconds" :: s :: rest ->
      seconds := Option.bind (float_of_string_opt s) (fun x -> if x > 0. then Some x else None);
      go rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
      trace := Some (t = "1");
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t -> (w, s, secs, t)
  | _ -> usage ()

(* The revision under test: the git HEAD when the checkout has one,
   and always a digest of the program's sources, which identifies the
   code when no git metadata travels with it. *)
let git_revision () =
  try
    let head = String.trim (read_file ".git/HEAD") in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then
      String.trim (read_file (Filename.concat ".git" (String.sub head 5 (String.length head - 5))))
    else head
  with Sys_error _ -> "none"

let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | entries ->
      Array.sort compare entries;
      List.concat_map
        (fun e ->
          let p = Filename.concat dir e in
          if Sys.is_directory p then files p
          else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
                  || Filename.basename p = "dune"
          then [ p ]
          else [])
        (Array.to_list entries)
    | exception Sys_error _ -> []
  in
  let parts = List.concat_map (fun p -> [ p; Digest.to_hex (Digest.file p) ]) (files "lib") in
  Digest.to_hex (Digest.string (String.concat "\n" parts))

let meta ~workload ~seed ~seconds ~traced (r : run_result) =
  let fields =
    [ ("workload", json_string workload); ("seed", string_of_int seed);
      ("held_out_seed", string_of_int held_out_seed);
      ("seconds", json_float seconds); ("trace", string_of_bool traced);
      ("cores", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_string Sys.ocaml_version);
      ("git_revision", json_string (git_revision ()));
      ("source_digest", json_string (source_digest ()));
      ( "metrics",
        "["
        ^ String.concat ","
            (List.map
               (fun m ->
                 Printf.sprintf "{\"name\":%s,\"value\":%s,\"unit\":%s,\"samples\":%d%s}"
                   (json_string m.name) (json_float m.value) (json_string m.unit_)
                   m.samples
                   (if m.note = "" then "" else ",\"note\":" ^ json_string m.note))
               r.metrics)
        ^ "]" );
      ( "checks",
        "["
        ^ String.concat ","
            (List.map
               (fun c ->
                 Printf.sprintf "{\"check\":%s,\"ok\":%b,\"detail\":%s}"
                   (json_string c.what) c.ok (json_string c.detail))
               r.checks)
        ^ "]" ) ]
  in
  "{\"meta\":{"
  ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields)
  ^ "}}"

let result_line (r : run_result) =
  let correct = List.for_all (fun c -> c.ok) r.checks in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    correct r.tally.Stats.attempted (Stats.failures r.tally)
    (String.concat ","
       (List.map
          (fun m ->
            Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string m.name)
              (json_float m.value) (json_string m.unit_))
          r.metrics))

let () =
  let workload, seed, seconds, traced = parse Sys.argv in
  (* The run's scratch files live inside the checkout and are removed
     on exit. *)
  let base = ".perfbench-run" in
  let dir = Filename.concat base (Printf.sprintf "%s-%d" workload (Unix.getpid ())) in
  (try Unix.mkdir base 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir dir 0o755;
  let cleanup () =
    rm_rf dir;
    try Unix.rmdir base with Unix.Unix_error _ -> ()
  in
  let r =
    Fun.protect ~finally:cleanup (fun () ->
        match workload with
        | "serve-cold" -> Serve_bench.run ~dir ~warm:false ~seed ~seconds ~traced
        | "serve-warm" -> Serve_bench.run ~dir ~warm:true ~seed ~seconds ~traced
        | _ -> Sweep_bench.run ~seed ~seconds ~traced)
  in
  print_endline (meta ~workload ~seed ~seconds ~traced r);
  print_endline (result_line r);
  List.iter
    (fun c -> if not c.ok then Printf.eprintf "check failed: %s: %s\n" c.what c.detail)
    r.checks;
  exit (if List.for_all (fun c -> c.ok) r.checks then 0 else 1)
