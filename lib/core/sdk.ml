module Types = Hypertee_ems.Types
module Enclave = Hypertee_ems.Enclave
module Emcall = Hypertee_cs.Emcall
module Phys_mem = Hypertee_arch.Phys_mem
module Ihub = Hypertee_arch.Ihub
module Bitmap = Hypertee_arch.Bitmap

let page_size = Hypertee_util.Units.page_size

type image = { code : bytes; data : bytes; config : Types.enclave_config }

let image_of_code ?(config = Types.default_config) ~code ~data () =
  let pages_for b = Stdlib.max 1 (Hypertee_util.Units.pages_of_bytes (Bytes.length b)) in
  let config =
    {
      config with
      Types.code_pages = Stdlib.max config.Types.code_pages (pages_for code);
      data_pages = Stdlib.max config.Types.data_pages (pages_for data);
    }
  in
  { code; data; config }

(* Split [b] into 4 KiB pages (last one zero-padded by the consumer). *)
let pages_of_bytes b =
  let n = Hypertee_util.Units.pages_of_bytes (Bytes.length b) in
  List.init n (fun i ->
      let off = i * page_size in
      Bytes.sub b off (Stdlib.min page_size (Bytes.length b - off)))

(* Mirrors the EMS measurement: for each EADD'd page, a little-endian
   vpn header followed by the padded page contents, all chained
   through one SHA-256 (Fig. 2's compile-time measurement). Feeding
   data then the shared zero page for the padding hashes the same
   byte stream as building each padded page. *)
let zero_pad = Bytes.make page_size '\000'

let measure_pages pages =
  let ctx = Hypertee_crypto.Sha256.init () in
  let header = Bytes.create 8 in
  List.iter
    (fun (vpn, data) ->
      Hypertee_util.Bytes_ext.set_u64_le header 0 (Int64.of_int vpn);
      Hypertee_crypto.Sha256.update ctx header;
      Hypertee_crypto.Sha256.update ctx data;
      let pad = page_size - Bytes.length data in
      if pad > 0 then Hypertee_crypto.Sha256.feed_sub ctx zero_pad ~off:0 ~len:pad)
    pages;
  Hypertee_crypto.Sha256.finalize ctx

(* The vpn layout must match Enclave.make_layout; we reconstruct it
   from the config exactly as EMS will. *)
let add_list image =
  let code_base = 0x100 in
  let data_base = code_base + image.config.Types.code_pages in
  let code_pages = List.mapi (fun i p -> (code_base + i, p, true)) (pages_of_bytes image.code) in
  let data_pages = List.mapi (fun i p -> (data_base + i, p, false)) (pages_of_bytes image.data) in
  code_pages @ data_pages

let expected_measurement image =
  measure_pages (List.map (fun (vpn, p, _) -> (vpn, p)) (add_list image))

let add_plan = add_list

let os_invoke platform request =
  match Platform.invoke platform ~caller:Emcall.Os_kernel request with
  | Ok response -> Ok response
  | Error Emcall.Cross_privilege -> Error "EMCall rejected: cross-privilege"
  | Error Emcall.Mailbox_full -> Error "EMCall rejected: mailbox full"
  | Error Emcall.Timeout -> Error "EMCall rejected: response timeout"
  | Error Emcall.Busy -> Error "EMCall rejected: busy (admission shed)"

let ( let* ) = Result.bind

let launch platform image =
  let* created = os_invoke platform (Types.Create { config = image.config }) in
  match created with
  | Types.Err e -> Error (Types.error_message e)
  | Types.Ok_created { enclave } ->
    let rec add_all = function
      | [] -> Ok ()
      | (vpn, data, executable) :: rest -> (
        let* r = os_invoke platform (Types.Add { enclave; vpn; data; executable }) in
        match r with
        | Types.Ok_unit -> add_all rest
        | Types.Err e -> Error (Types.error_message e)
        | _ -> Error "unexpected EADD response")
    in
    let* () = add_all (add_list image) in
    let* measured = os_invoke platform (Types.Measure { enclave }) in
    (match measured with
    | Types.Ok_measure { measurement } ->
      if Bytes.equal measurement (expected_measurement image) then Ok enclave
      else Error "measurement mismatch: enclave image was tampered with"
    | Types.Err e -> Error (Types.error_message e)
    | _ -> Error "unexpected EMEAS response")
  | _ -> Error "unexpected ECREATE response"

(* Warm-pool fast path: try to revive a parked enclave carrying this
   image's measurement; on a pool miss, fall back to the cold launch.
   Either way the caller holds a Measured enclave whose measurement
   is byte-identical to [expected_measurement image]. *)
let warm_launch platform image =
  let measurement = expected_measurement image in
  let* revived = os_invoke platform (Types.Warm_create { measurement }) in
  match revived with
  | Types.Ok_created { enclave } -> Ok (enclave, `Warm)
  | Types.Err (Types.Bad_state _) ->
    Result.map (fun id -> (id, `Cold)) (launch platform image)
  | Types.Err e -> Error (Types.error_message e)
  | _ -> Error "unexpected EWARM response"

let retire platform ~enclave =
  let* retired = os_invoke platform (Types.Retire { enclave }) in
  match retired with
  | Types.Ok_unit -> Ok ()
  | Types.Err e -> Error (Types.error_message e)
  | _ -> Error "unexpected ERETIRE response"

let enter platform ~enclave =
  let* entered = os_invoke platform (Types.Enter { enclave }) in
  match entered with
  | Types.Ok_entered _ -> (
    match Platform.find_enclave platform enclave with
    | Some e -> Ok (Session.make platform ~enclave:e)
    | None -> Error "enclave vanished after EENTER")
  | Types.Err e -> Error (Types.error_message e)
  | _ -> Error "unexpected EENTER response"

let resume platform ~enclave =
  let* resumed = os_invoke platform (Types.Resume { enclave }) in
  match resumed with
  | Types.Ok_entered _ -> (
    match Platform.find_enclave platform enclave with
    | Some e -> Ok (Session.make platform ~enclave:e)
    | None -> Error "enclave vanished after ERESUME")
  | Types.Err e -> Error (Types.error_message e)
  | _ -> Error "unexpected ERESUME response"

let destroy platform ~enclave =
  let* destroyed = os_invoke platform (Types.Destroy { enclave }) in
  match destroyed with
  | Types.Ok_unit -> Ok ()
  | Types.Err e -> Error (Types.error_message e)
  | _ -> Error "unexpected EDESTROY response"

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
