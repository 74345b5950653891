(* Tests for the experiment registry: the one list behind the CLI's
   subcommands, its [all] sweep and EXPERIMENTS.md's targets. *)

module Registry = Hypertee_experiments.Registry

let check = Alcotest.check
let name (Registry.Entry e) = e.Registry.name

let paper_names =
  [ "table1"; "table2"; "table3"; "fig6"; "fig7"; "table4"; "fig8a"; "fig8b"; "fig9"; "fig10";
    "fig11"; "fig12"; "table5"; "table6"; "ablations" ]

let test_names () =
  let names = List.map name Registry.entries in
  check Alcotest.int "names unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  check Alcotest.(list string) "paper entries, in sweep order" paper_names
    (List.map name Registry.paper);
  check Alcotest.(list string) "all = paper, chaos, scale" (paper_names @ [ "chaos"; "scale" ])
    (List.map name Registry.all);
  List.iter
    (fun n -> check Alcotest.bool (n ^ " has a subcommand") true (List.mem n names))
    (paper_names @ [ "cloud"; "restart"; "check"; "conformance"; "metrics"; "perf" ])

(* Run an entry at its quick size into a file and read it back. *)
let capture entry =
  let path = Filename.temp_file "registry" ".txt" in
  let oc = open_out_bin path in
  let clean = Registry.execute entry (Registry.params entry ~quick:true ()) oc in
  close_out oc;
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  (clean, text)

let test_paper_byte_identical () =
  List.iter
    (fun entry ->
      let clean, first = capture entry in
      let _, second = capture entry in
      check Alcotest.bool (name entry ^ " verdict clean") true clean;
      check Alcotest.bool (name entry ^ " printed something") true (String.length first > 0);
      check Alcotest.string (name entry ^ " identical bytes twice") first second)
    Registry.paper

let test_all_is_modelled () =
  List.iter
    (fun (Registry.Entry e) ->
      check Alcotest.bool (e.Registry.name ^ " not host-timed") true
        (e.Registry.clock = Registry.Modelled))
    Registry.all;
  check Alcotest.bool "perf is host-timed" true
    (List.exists
       (fun (Registry.Entry e) -> e.Registry.name = "perf" && e.Registry.clock = Registry.Host)
       Registry.entries)

let suite =
  [
    ( "registry",
      [
        Alcotest.test_case "names unique, paper covered" `Quick test_names;
        Alcotest.test_case "paper entries deterministic" `Quick test_paper_byte_identical;
        Alcotest.test_case "all has no host-timed entry" `Quick test_all_is_modelled;
      ] );
  ]
