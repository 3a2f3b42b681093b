(* Knobs suite: the one typed configuration record.

   [Knobs.parse] is the only reader of the OMPSIMD_* variables, so its
   contract is tested here directly: every knob parses or fails with a
   message naming it (never an exception), the defaults are the
   documented ones, README documents exactly the accepted set, and the
   cache keys derived from the compile knobs keep their bytes. *)

module Offload = Openmp.Offload
module Fleet = Serve.Fleet
module Scheduler = Serve.Scheduler
module Request = Serve.Request

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let parse pairs = Knobs.parse (fun name -> List.assoc_opt name pairs)

(* One well-formed value per knob: the seeds the mutation property
   starts from, and the proof that the test covers every knob. *)
let samples =
  [
    ("OMPSIMD_DEVICE", "w64-sw,num_sms=4");
    ("OMPSIMD_DOMAINS", "2");
    ("OMPSIMD_PASSES", "fold,licm@i,tile:8,dce");
    ("OMPSIMD_SANITIZE", "1");
    ("OMPSIMD_FAULTS", "abort=0.1,flip=0.2:0.5,stall=0.05,exhaust=0.1");
    ("OMPSIMD_FAULT_SEED", "7");
    ("OMPSIMD_WATCHDOG", "8000");
    ("OMPSIMD_SERVE_QUEUE", "16");
    ("OMPSIMD_SERVE_CONC", "2");
    ("OMPSIMD_SERVE_CACHE", "32");
    ("OMPSIMD_SERVE_RETRIES", "2");
    ("OMPSIMD_SERVE_BACKOFF", "500");
    ("OMPSIMD_SERVE_BREAKER", "4");
    ("OMPSIMD_SERVE_SLO_MS", "30");
    ("OMPSIMD_SERVE_WINDOW", "20000");
    ("OMPSIMD_SERVE_SHARDS", "4");
    ("OMPSIMD_SERVE_BATCH", "8");
    ("OMPSIMD_SERVE_STEAL", "on");
    ("OMPSIMD_SERVE_TENANTS", "alice=3,bob");
    ("OMPSIMD_FLEET_DEVICES", "w32-hw,w64-sw");
    ("OMPSIMD_FLEET_AFFINITY", "0");
    ("OMPSIMD_FLEET_DECAY", "2");
    ("OMPSIMD_SERVE_TELEMETRY", "telemetry.jsonl");
    ("OMPSIMD_SERVE_SHED", "yes");
    ("OMPSIMD_SERVE_AUTOSCALE", "off");
    ("OMPSIMD_SERVE_BUDGET", "8");
    ("OMPSIMD_SERVE_COOLDOWN", "3");
  ]

let sorted l = List.sort_uniq String.compare l

let test_samples_cover_every_knob () =
  Alcotest.(check (list string))
    "one sample per accepted knob" (sorted Knobs.names)
    (sorted (List.map fst samples));
  Alcotest.(check int) "27 knobs" 27 (List.length Knobs.names);
  List.iter
    (fun (name, v) ->
      match parse [ (name, v) ] with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s=%S must parse: %s" name v msg)
    samples

(* qcheck: for every knob, a random or mutated value either parses or
   fails with an [Error] naming that knob — it never raises. *)
let value_gen =
  let open QCheck.Gen in
  let alphabet = "0123456789abcdefwxyz-=,:@#._ /" in
  let random =
    string_size ~gen:(map (String.get alphabet) (int_bound (String.length alphabet - 1)))
      (int_bound 12)
  in
  let mutate s =
    let n = String.length s in
    int_bound (max 0 (n - 1)) >>= fun i ->
    char_range ' ' '~' >>= fun c ->
    oneofl
      [
        String.sub s 0 i ^ String.sub s (min n (i + 1)) (n - min n (i + 1));
        String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i);
        String.mapi (fun j x -> if j = i then c else x) s;
        s ^ s;
      ]
  in
  oneofl samples >>= fun (name, good) ->
  frequency [ (1, random); (3, mutate good); (1, return "-1"); (1, return "nan") ]
  >|= fun v -> (name, v)

let knob_never_raises =
  QCheck.Test.make ~count:600 ~name:"every knob parses or names itself"
    (QCheck.make ~print:(fun (n, v) -> Printf.sprintf "%s=%S" n v) value_gen)
    (fun (name, v) ->
      match parse [ (name, v) ] with
      | Ok _ -> true
      | Error msg ->
          contains msg name && not (String.contains msg '\n')
          || QCheck.Test.fail_reportf "%s=%S: message %S does not name it" name
               v msg
      | exception e ->
          QCheck.Test.fail_reportf "%s=%S raised %s" name v
            (Printexc.to_string e))

(* qcheck: OMPSIMD_PASSES has a grammar of its own (pass[:arg][@target]
   items, comma-separated), so it gets its own fuzz: random bytes and one
   to three edits of valid specs each parse, or fail with an [Error]
   naming the variable; nothing else escapes [Knobs.parse]. *)
let pass_specs =
  [
    "fold,licm@i,tile:4@#2,dce";
    "unroll:8@#0,strength@j,fuse,collapse";
    "interchange@#1,spmdize,unroll";
    "default";
    "none";
  ]

let spec_gen = Fuzz.input ~alphabet:"fold,licm@#:0123456789unrtespaz-_ " ~sep:"," pass_specs

let passes_never_raise =
  QCheck.Test.make ~count:400 ~name:"OMPSIMD_PASSES parses or names itself"
    (QCheck.make ~print:(Printf.sprintf "%S") spec_gen)
    (fun spec ->
      match parse [ ("OMPSIMD_PASSES", spec) ] with
      | Ok _ -> true
      | Error msg ->
          contains msg "OMPSIMD_PASSES" && not (String.contains msg '\n')
          || QCheck.Test.fail_reportf "OMPSIMD_PASSES=%S: message %S" spec msg
      | exception e ->
          QCheck.Test.fail_reportf "OMPSIMD_PASSES=%S raised %s" spec
            (Printexc.to_string e))

(* The five front-door failures the knobs record exists to make
   uniform: each is an [Error] naming its variable. *)
let test_named_failures () =
  List.iter
    (fun (name, v) ->
      match parse [ (name, v) ] with
      | Ok _ -> Alcotest.failf "%s=%S must be rejected" name v
      | Error msg ->
          if not (contains msg name) then
            Alcotest.failf "%s=%S: message %S does not name it" name v msg)
    [
      ("OMPSIMD_FAULTS", "bogus");
      ("OMPSIMD_DOMAINS", "x");
      ("OMPSIMD_PASSES", "nope");
      ("OMPSIMD_SERVE_QUEUE", "x");
    ]

(* Ranges are checked at the edge too: one case per bound, each value
   just past it rejected with the variable named, the bound itself
   accepted. *)
let range_cases =
  List.map
    (fun (name, bad, edge) ->
      Alcotest.test_case (Printf.sprintf "range: %s=%s rejected" name bad) `Quick
        (fun () ->
          (match parse [ (name, bad) ] with
          | Ok _ -> Alcotest.failf "%s=%S must be rejected" name bad
          | Error msg ->
              if not (contains msg name) then
                Alcotest.failf "%s=%S: message %S does not name it" name bad msg);
          match parse [ (name, edge) ] with
          | Ok _ -> ()
          | Error msg -> Alcotest.failf "%s=%S must parse: %s" name edge msg))
    [
      ("OMPSIMD_SERVE_SHARDS", "0", "1");
      ("OMPSIMD_SERVE_BATCH", "0", "1");
      ("OMPSIMD_SERVE_CONC", "0", "1");
      ("OMPSIMD_SERVE_QUEUE", "-3", "0");
      ("OMPSIMD_SERVE_BREAKER", "-2", "0");
      ("OMPSIMD_SERVE_CACHE", "-1", "0");
      ("OMPSIMD_SERVE_RETRIES", "-1", "0");
      ("OMPSIMD_SERVE_BUDGET", "-1", "0");
      ("OMPSIMD_FLEET_DECAY", "-1", "0");
      ("OMPSIMD_WATCHDOG", "-5", "0");
      ("OMPSIMD_WATCHDOG", "nan", "0.5");
      ("OMPSIMD_SERVE_WINDOW", "0", "0.5");
    ]

let test_blank_is_unset () =
  match parse (List.map (fun (name, _) -> (name, "  ")) samples) with
  | Error msg -> Alcotest.failf "blank values must mean unset: %s" msg
  | Ok k ->
      Alcotest.(check bool) "all-blank equals the defaults" true (k = Knobs.default)

let test_defaults () =
  let d = Knobs.default in
  let b = d.Knobs.fleet.Fleet.base in
  Alcotest.(check bool) "device" true (d.Knobs.device = Gpusim.Config.a100_quarter);
  Alcotest.(check bool) "compile knobs" true (d.Knobs.compile = Offload.default_knobs);
  Alcotest.(check bool) "service compiles with them" true
    (b.Scheduler.knobs = Offload.default_knobs);
  Alcotest.(check bool) "switches off" true
    ((not d.Knobs.sanitize) && d.Knobs.faults = None && d.Knobs.watchdog = 0.0);
  Alcotest.(check (list int))
    "queue, conc, cache, retries, breaker, shards, batch, decay"
    [ 16; 2; 32; 2; 4; 1; 1; 0 ]
    [
      b.Scheduler.queue_bound; b.Scheduler.servers; b.Scheduler.cache_capacity;
      b.Scheduler.max_retries; b.Scheduler.breaker; d.Knobs.fleet.Fleet.shards;
      d.Knobs.fleet.Fleet.batch; d.Knobs.fleet.Fleet.decay;
    ];
  Alcotest.(check bool) "memo, steal, affinity, shed on; telemetry off" true
    (d.Knobs.fleet.Fleet.memo && d.Knobs.fleet.Fleet.steal
    && d.Knobs.fleet.Fleet.affinity && d.Knobs.fleet.Fleet.shed
    && not d.Knobs.fleet.Fleet.telemetry);
  (* an SLO arms the autoscaler with the documented derived defaults *)
  match parse [ ("OMPSIMD_SERVE_SLO_MS", "30"); ("OMPSIMD_SERVE_SHARDS", "3") ] with
  | Error msg -> Alcotest.fail msg
  | Ok k ->
      let a = k.Knobs.fleet.Fleet.autoscale in
      Alcotest.(check (option (float 0.0))) "slo in ticks" (Some 30_000.0)
        k.Knobs.fleet.Fleet.base.Scheduler.slo;
      Alcotest.(check bool) "armed" true a.Serve.Autoscale.enabled;
      Alcotest.(check (list int)) "budget 2 x shards, cap 3 x conc, cooldown"
        [ 6; 6; 2 ]
        [ a.Serve.Autoscale.budget; a.Serve.Autoscale.max_extra;
          a.Serve.Autoscale.cooldown ]

(* The record's launch settings reach the library on the pool it
   builds, and nowhere else: the default record's pool is all off. *)
let test_pool_carries_settings () =
  let armed =
    match
      parse
        [
          ("OMPSIMD_FAULTS", "abort=0");
          ("OMPSIMD_SANITIZE", "1");
          ("OMPSIMD_WATCHDOG", "50");
        ]
    with
    | Ok k -> k
    | Error msg -> Alcotest.fail msg
  in
  let pool = Knobs.pool { armed with Knobs.domains = 0 } in
  Alcotest.(check bool) "plan armed" true
    (Gpusim.Pool.faults pool = armed.Knobs.faults);
  Alcotest.(check bool) "a plan at all" true (Gpusim.Pool.faults pool <> None);
  Alcotest.(check bool) "sanitizer on" true (Gpusim.Pool.sanitize pool);
  Alcotest.(check (float 0.0)) "watchdog" 50.0 (Gpusim.Pool.watchdog pool);
  Alcotest.(check int) "domains from the record" 0 (Gpusim.Pool.size pool);
  let plain = Knobs.pool { Knobs.default with Knobs.domains = 0 } in
  Alcotest.(check bool) "default: no plan" true
    (Gpusim.Pool.faults plain = None);
  Alcotest.(check bool) "default: sanitizer off" false
    (Gpusim.Pool.sanitize plain);
  Alcotest.(check (float 0.0)) "default: watchdog off" 0.0
    (Gpusim.Pool.watchdog plain)

(* --- derived keys -------------------------------------------------------- *)

let spec kernel size guardize = { Request.default_spec with Request.kernel; size; guardize }
let tier2 = "fold,licm,strength,fuse,tile:32,dce"

(* Strings computed before the knobs record existed: placement hashes
   the content key, so a format drift here would silently move every
   fleet byte. *)
let test_pinned_keys () =
  let cache ?(knobs = Offload.default_knobs) s =
    Offload.cache_key ~knobs (Request.kernel_of_spec s)
  in
  let content ?(knobs = Offload.default_knobs) s = Fleet.content_key ~knobs s in
  let pin what want got = Alcotest.(check string) what want got in
  pin "saxpy cache" "9579671a2e6ed8c4174fa313e4977d01:g0b1r0:p[default]:staged"
    (cache (spec "saxpy" 16 false));
  pin "saxpy cache, no fold"
    "9579671a2e6ed8c4174fa313e4977d01:g0b0r0:p[default]:staged"
    (cache ~knobs:{ Offload.default_knobs with Offload.fold = false } (spec "saxpy" 16 false));
  pin "saxpy cache, racecheck"
    "9579671a2e6ed8c4174fa313e4977d01:g0b1r1:p[default]:staged"
    (cache ~knobs:{ Offload.default_knobs with Offload.racecheck = true } (spec "saxpy" 16 false));
  pin "chain cache, tier-2 pipeline"
    "a7f4e0bcf4e8a3be96b50f878653b339:g0b1r0:p[fold,licm,strength,fuse,tile:32,dce]:staged"
    (cache ~knobs:{ Offload.default_knobs with Offload.passes = tier2 } (spec "chain" 64 false));
  pin "rowsum cache, guardized"
    "7407849d04cad6050f3554778a9ce4b4:g1b1r0:p[default]:staged"
    (cache ~knobs:{ Offload.default_knobs with Offload.guardize = true } (spec "rowsum" 32 true));
  pin "saxpy content" "9579671a2e6ed8c4174fa313e4977d01|-|" (content (spec "saxpy" 16 false));
  pin "chain content, tier-2 pipeline"
    "a7f4e0bcf4e8a3be96b50f878653b339|-|fold,licm,strength,fuse,tile:32,dce"
    (content ~knobs:{ Offload.default_knobs with Offload.passes = tier2 } (spec "chain" 64 false));
  pin "rowsum content, guardized" "7407849d04cad6050f3554778a9ce4b4|g|"
    (content (spec "rowsum" 32 true))

(* qcheck: every single-field flip of the compile knobs changes the
   cache key, so no two distinct artifacts share a cache slot.  The
   content key (placement, batching, memo) covers what a launch
   computes: the pass spec and the request's own guardize flag.  It
   ignores the remaining fields because a fleet runs one knobs value
   for all its requests and they never change a result. *)
let knob_flips =
  let base_knobs =
    QCheck.Gen.(
      map
        (fun (guardize, fold, racecheck, passes) ->
          { Offload.guardize; fold; racecheck; passes })
        (quad bool bool bool (oneofl [ ""; "none"; "fold,dce"; tier2 ])))
  in
  QCheck.Test.make ~count:40 ~name:"knob flips move the derived keys"
    (QCheck.make
       QCheck.Gen.(pair base_knobs (oneofl Request.catalog_names)))
    (fun (k, kernel) ->
      let s = spec kernel 24 false in
      let ir = Request.kernel_of_spec s in
      let other_passes = if k.Offload.passes = "fold,dce" then tier2 else "fold,dce" in
      let flips =
        [
          ("guardize", { k with Offload.guardize = not k.Offload.guardize }, false);
          ("fold", { k with Offload.fold = not k.Offload.fold }, false);
          ("racecheck", { k with Offload.racecheck = not k.Offload.racecheck }, false);
          ("passes", { k with Offload.passes = other_passes }, true);
        ]
      in
      List.for_all
        (fun (field, k', content_moves) ->
          let cache_moved = Offload.cache_key ~knobs:k ir <> Offload.cache_key ~knobs:k' ir in
          let content_moved =
            Fleet.content_key ~knobs:k s <> Fleet.content_key ~knobs:k' s
          in
          (cache_moved && content_moved = content_moves)
          || QCheck.Test.fail_reportf "flipping %s: cache moved %b, content moved %b"
               field cache_moved content_moved)
        flips)

(* --- documentation drift ------------------------------------------------- *)

(* README's knob tables list exactly the variables the parser accepts. *)
let test_readme_tables () =
  let ic = open_in "../README.md" in
  let documented = ref [] in
  (try
     while true do
       let line = input_line ic in
       let prefix = "| `OMPSIMD_" in
       if String.starts_with ~prefix line then
         let rest = String.sub line 3 (String.length line - 3) in
         documented := String.sub rest 0 (String.index rest '`') :: !documented
     done
   with End_of_file -> close_in ic);
  Alcotest.(check (list string))
    "README knob tables = Knobs.names" (sorted Knobs.names) (sorted !documented)

(* Every OMPSIMD_* name the prose docs mention is a knob, one of the
   harness-only variables, a retired knob (named so the docs can say it
   is now ignored, and read by no parser), or a family prefix ending in
   '_'. *)
let test_docs_name_real_knobs () =
  let harness_only = [ "OMPSIMD_RUN"; "OMPSIMD_SOAK_FULL" ] in
  let retired = [ "OMPSIMD_EVAL" ] in
  List.iter
    (fun name ->
      if List.mem name Knobs.names then Alcotest.failf "%s is retired but parsed" name)
    retired;
  let name_char c = (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' in
  List.iter
    (fun doc ->
      let text = In_channel.with_open_text ("../" ^ doc) In_channel.input_all in
      let n = String.length text in
      let rec scan i =
        match String.index_from_opt text i 'O' with
        | None -> ()
        | Some j when j + 8 <= n && String.sub text j 8 = "OMPSIMD_" ->
            let k = ref (j + 8) in
            while !k < n && name_char text.[!k] do incr k done;
            let name = String.sub text j (!k - j) in
            if not (List.mem name Knobs.names || List.mem name harness_only
                    || List.mem name retired || String.ends_with ~suffix:"_" name)
            then Alcotest.failf "%s mentions %s, which no parser reads" doc name;
            scan !k
        | Some j -> scan (j + 1)
      in
      scan 0)
    [ "README.md"; "DESIGN.md"; "EXPERIMENTS.md" ]

let suite =
  [
    ( "knobs",
      [
        Alcotest.test_case "samples cover every knob" `Quick
          test_samples_cover_every_knob;
        QCheck_alcotest.to_alcotest knob_never_raises;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x9a55 |])
          passes_never_raise;
        Alcotest.test_case "front-door failures name the variable" `Quick
          test_named_failures;
        Alcotest.test_case "blank means unset" `Quick test_blank_is_unset;
        Alcotest.test_case "defaults" `Quick test_defaults;
        Alcotest.test_case "pool carries the settings" `Quick
          test_pool_carries_settings;
        Alcotest.test_case "pinned cache and content keys" `Quick
          test_pinned_keys;
        QCheck_alcotest.to_alcotest knob_flips;
        Alcotest.test_case "README documents every knob" `Quick
          test_readme_tables;
        Alcotest.test_case "docs name only real knobs" `Quick
          test_docs_name_real_knobs;
      ]
      @ range_cases );
  ]
