(* The repository benchmark. One run: generate the workload's inputs
   from the seed, set up (timed), run the timed window, check every
   output, and print one JSON result as the last line of stdout.

   perfbench --workload ingest|serve|cluster --seed N --seconds S
             --trace 0|1 [--size full|tiny] [--spans FILE]
             [--inject-stale-read] [--commit ID]

   --trace 0 reports the end-to-end metrics; --trace 1 runs half the
   window untraced and half traced and reports the per-layer metrics
   (see perfbench/README.md). Exit code 1 when a correctness check
   failed (the result line is still printed), 2 on bad arguments. *)

let usage () =
  prerr_endline
    "usage: perfbench --workload ingest|serve|cluster --seed N --seconds S --trace 0|1\n\
    \       [--size full|tiny] [--spans FILE] [--inject-stale-read] [--commit ID]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let size = ref "full" and spans = ref None and inject = ref false and commit = ref "unknown" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> usage ());
        parse rest
    | "--size" :: v :: rest -> size := v; parse rest
    | "--spans" :: v :: rest -> spans := Some v; parse rest
    | "--inject-stale-read" :: rest -> inject := true; parse rest
    | "--commit" :: v :: rest -> commit := v; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when t > 0. -> (s, t, tr)
    | _ -> usage ()
  in
  let tiny = match !size with "full" -> false | "tiny" -> true | _ -> usage () in
  if !inject then begin
    (* Serve the read-your-writes gate open: the checks must catch it. *)
    Ivm_fault.Failpoint.enable ~seed ();
    Ivm_fault.Failpoint.arm "net.stale_read" ~times:max_int Ivm_fault.Failpoint.Fail
  end;
  Printf.printf "perfbench: workload %s, seed %d, seconds %g, trace %d, size %s\n" !workload seed
    seconds (Bool.to_int trace) !size;
  Printf.printf "host: nproc %d, ocaml %s, commit %s\n%!" (Domain.recommended_domain_count ())
    Sys.ocaml_version !commit;
  let spans_out = !spans in
  let verdict, result =
    match !workload with
    | "ingest" ->
        Ingest.run ~size:(if tiny then Ingest.tiny else Ingest.full) ~seed ~seconds ~trace ~spans_out
    | "serve" ->
        Serve.run ~size:(if tiny then Serve.tiny else Serve.full) ~seed ~seconds ~trace ~spans_out
    | "cluster" ->
        Cluster.run ~size:(if tiny then Serve.tiny else Serve.full) ~seed ~seconds ~trace ~spans_out
    | _ -> usage ()
  in
  List.iter (fun m -> Printf.printf "check: %s\n" m) (List.rev verdict.Common.notes);
  List.iter (fun m -> Printf.printf "FAILED: %s\n" m) (List.rev verdict.Common.errors);
  print_endline (Common.json_of_result result);
  exit (if result.Common.correct then 0 else 1)
