module Types = Hypertee_ems.Types
module Enclave = Hypertee_ems.Enclave
module Emcall = Hypertee_cs.Emcall
module Phys_mem = Hypertee_arch.Phys_mem
module Ihub = Hypertee_arch.Ihub
module Bitmap = Hypertee_arch.Bitmap

let page_size = Hypertee_util.Units.page_size

type image = { code : bytes; data : bytes; config : Types.enclave_config; measurement : bytes }

(* Split [b] into 4 KiB pages (last one zero-padded by the consumer). *)
let pages_of_bytes b =
  let n = Hypertee_util.Units.pages_of_bytes (Bytes.length b) in
  List.init n (fun i ->
      let off = i * page_size in
      Bytes.sub b off (Stdlib.min page_size (Bytes.length b - off)))

(* The vpn layout must match Enclave.make_layout; we reconstruct it
   from the config exactly as EMS will. *)
let plan ~config ~code ~data =
  let code_base = 0x100 in
  let data_base = code_base + config.Types.code_pages in
  let code_pages = List.mapi (fun i p -> (code_base + i, p, true)) (pages_of_bytes code) in
  let data_pages = List.mapi (fun i p -> (data_base + i, p, false)) (pages_of_bytes data) in
  code_pages @ data_pages

(* Mirrors the EMS measurement: for each EADD'd page, a little-endian
   vpn header followed by the padded page contents, all chained
   through one SHA-256 (Fig. 2's compile-time measurement). Feeding
   data then the shared zero page for the padding hashes the same
   byte stream as building each padded page. *)
let zero_pad = Bytes.make page_size '\000'

let measure_plan plan =
  let ctx = Hypertee_crypto.Sha256.init () in
  let header = Bytes.create 8 in
  List.iter
    (fun (vpn, data, _) ->
      Hypertee_util.Bytes_ext.set_u64_le header 0 (Int64.of_int vpn);
      Hypertee_crypto.Sha256.update ctx header;
      Hypertee_crypto.Sha256.update ctx data;
      let pad = page_size - Bytes.length data in
      if pad > 0 then Hypertee_crypto.Sha256.feed_sub ctx zero_pad ~off:0 ~len:pad)
    plan;
  Hypertee_crypto.Sha256.finalize ctx

let image_of_code ?(config = Types.default_config) ~code ~data () =
  let pages_for b = Stdlib.max 1 (Hypertee_util.Units.pages_of_bytes (Bytes.length b)) in
  let config =
    {
      config with
      Types.code_pages = Stdlib.max config.Types.code_pages (pages_for code);
      data_pages = Stdlib.max config.Types.data_pages (pages_for data);
    }
  in
  { code; data; config; measurement = measure_plan (plan ~config ~code ~data) }

let expected_measurement image = image.measurement
let add_plan image = plan ~config:image.config ~code:image.code ~data:image.data

(* --- the launch protocol as a value -------------------------------- *)

type 'a step =
  | Done of 'a
  | Fail of string
  | Created of Types.enclave_id * 'a step
  | Call of Emcall.caller * Types.request * (Types.response -> 'a step)

let rec bind step f =
  match step with
  | Done x -> f x
  | Fail m -> Fail m
  | Created (enclave, next) -> Created (enclave, bind next f)
  | Call (caller, request, k) -> Call (caller, request, fun response -> bind (k response) f)

let expect caller request ok =
  Call
    ( caller,
      request,
      fun response ->
        match (ok response, response) with
        | Some next, _ -> next
        | None, Types.Err e -> Fail (Types.error_message e)
        | None, _ ->
          Fail
            (Printf.sprintf "unexpected %s response"
               (Types.opcode_name (Types.opcode_of_request request))) )

let os = Emcall.Os_kernel

let launch_steps image =
  expect os (Types.Create { config = image.config }) (function
    | Types.Ok_created { enclave } ->
      let rec add = function
        | [] ->
          expect os (Types.Measure { enclave }) (function
            | Types.Ok_measure { measurement } ->
              Some
                (if Bytes.equal measurement image.measurement then Done enclave
                 else Fail "measurement mismatch: enclave image was tampered with")
            | _ -> None)
        | (vpn, data, executable) :: rest ->
          expect os (Types.Add { enclave; vpn; data; executable }) (function
            | Types.Ok_unit -> Some (add rest)
            | _ -> None)
      in
      Some (Created (enclave, add (add_plan image)))
    | _ -> None)

(* Warm-pool fast path: try to revive a parked enclave carrying this
   image's measurement; on a pool miss, fall back to the cold launch.
   Either way the caller holds a Measured enclave whose measurement
   is byte-identical to [expected_measurement image]. *)
let warm_launch_steps image =
  expect os (Types.Warm_create { measurement = image.measurement }) (function
    | Types.Ok_created { enclave } -> Some (Created (enclave, Done (enclave, `Warm)))
    | Types.Err (Types.Bad_state _) ->
      Some (bind (launch_steps image) (fun enclave -> Done (enclave, `Cold)))
    | _ -> None)

let gate_error = function
  | Emcall.Cross_privilege -> "EMCall rejected: cross-privilege"
  | Emcall.Mailbox_full -> "EMCall rejected: mailbox full"
  | Emcall.Timeout -> "EMCall rejected: response timeout"
  | Emcall.Busy -> "EMCall rejected: busy (admission shed)"

let run platform step =
  let rec go owned ns = function
    | Done x -> Ok (x, ns)
    | Fail m ->
      (* Fail closed: an enclave this run created is one no caller
         learns the id of, so tear it down (best effort). *)
      Option.iter
        (fun enclave -> ignore (Platform.invoke platform ~caller:os (Types.Destroy { enclave })))
        owned;
      Error m
    | Created (enclave, next) -> go (Some enclave) ns next
    | Call (caller, request, k) -> (
      match Platform.invoke_timed platform ~caller request with
      | Ok (response, latency_ns) -> go owned (ns +. latency_ns) (k response)
      | Error e -> go owned ns (Fail (gate_error e)))
  in
  go None 0.0 step

let exec platform step = Result.map fst (run platform step)
let unit_call request = expect os request (function Types.Ok_unit -> Some (Done ()) | _ -> None)
let launch platform image = exec platform (launch_steps image)
let warm_launch platform image = exec platform (warm_launch_steps image)
let retire platform ~enclave = exec platform (unit_call (Types.Retire { enclave }))
let destroy platform ~enclave = exec platform (unit_call (Types.Destroy { enclave }))

let ( let* ) = Result.bind

(* EENTER or ERESUME, then the running session over the enclave. *)
let session platform ~enclave request =
  let* () =
    exec platform (expect os request (function Types.Ok_entered _ -> Some (Done ()) | _ -> None))
  in
  match Platform.find_enclave platform enclave with
  | Some e -> Ok (Session.make platform ~enclave:e)
  | None ->
    Error ("enclave vanished after " ^ Types.opcode_name (Types.opcode_of_request request))

let enter platform ~enclave = session platform ~enclave (Types.Enter { enclave })
let resume platform ~enclave = session platform ~enclave (Types.Resume { enclave })

(* Host access to the staging window: plaintext frames owned by the
   CS OS, so the access legitimately passes iHub and the bitmap. *)
let staging_frame platform ~enclave ~page =
  match Platform.find_enclave platform enclave with
  | None -> Error "no such enclave"
  | Some e -> (
    match List.nth_opt e.Enclave.staging_frames page with
    | Some frame -> Ok frame
    | None -> Error "offset beyond the staging window")

let host_staging_access platform ~enclave ~off ~len k =
  if len < 0 || off < 0 then Error "negative staging access"
  else begin
    let page = off / page_size and in_page = off mod page_size in
    if in_page + len > page_size then Error "staging access crosses a page boundary"
    else
      let* frame = staging_frame platform ~enclave ~page in
      (* The hardware path: bitmap must not flag this frame, and iHub
         must admit CS software. *)
      if Bitmap.get (Platform.Internals.bitmap platform) ~frame then
        Error "bitmap blocked host access to staging (platform bug)"
      else
        match
          Ihub.check (Platform.Internals.ihub platform) ~initiator:Ihub.Cs_software
            ~direction:Ihub.Load ~frame
        with
        | Error _ -> Error "iHub denied staging access"
        | Ok () -> k frame in_page
  end

let host_write_staging platform ~enclave ~off data =
  host_staging_access platform ~enclave ~off ~len:(Bytes.length data) (fun frame in_page ->
      Phys_mem.write_sub (Platform.mem platform) ~frame ~off:in_page data;
      Ok ())

let host_read_staging platform ~enclave ~off ~len =
  host_staging_access platform ~enclave ~off ~len (fun frame in_page ->
      Ok (Phys_mem.read_sub (Platform.mem platform) ~frame ~off:in_page ~len))
