(** Measurement & attestation service: EMEAS, EATTEST (Sec. V-B). *)

open State

let name = "attest"
let opcodes = Types.[ EMEAS; EATTEST ]

let handle_measure t ~enclave =
  let* e = get_enclave t enclave in
  let* () = Enclave.can_measure e in
  (match e.Enclave.measurement_ctx with
  | None -> Types.Err (Types.Bad_state "measurement already finalized")
  | Some ctx ->
    let m = Hypertee_crypto.Sha256.finalize ctx in
    e.Enclave.measurement_ctx <- None;
    e.Enclave.measurement <- Some m;
    e.Enclave.state <- Enclave.Measured;
    Types.Ok_measure { measurement = m })

let handle_attest t ~sender ~enclave ~user_data =
  let* e = get_enclave t enclave in
  let* () = check_identity ~sender ~target:enclave ~strict:true in
  match e.Enclave.measurement with
  | None -> Types.Err (Types.Bad_state "enclave not measured")
  | Some m ->
    let quote =
      Attest.make_quote t.keys ~platform_measurement:t.platform_measurement
        ~platform_certificate:t.platform_certificate ~enclave_measurement:m ~user_data
    in
    Types.Ok_attest { quote = Attest.quote_to_bytes quote }

let handle t ~sender (request : Types.request) =
  match request with
  | Types.Measure { enclave } -> handle_measure t ~enclave
  | Types.Attest { enclave; user_data } -> handle_attest t ~sender ~enclave ~user_data
  | _ -> Types.Err (Types.Invalid_argument_ "request outside the attestation service")

let register registry = Registry.register registry ~service:name ~opcodes handle
