(** Measurement, attestation and sealing services (paper Sec. VI).

    - Quotes: EMS signs (platform measurement, enclave measurement,
      user data) — the platform certificate with EK, once per boot,
      the enclave quote with AK, once per quote. A remote verifier
      checks both signatures and compares measurements against
      expectations.
    - Local attestation: a report MAC keyed by a report key derived
      from the challenger's measurement and SK, so only EMS (and thus
      only same-platform enclaves via EMS) can produce or check it.
    - Sealing: AES-CTR + MAC under a sealing key derived from the
      enclave measurement, so only the same enclave (same code) on
      the same platform can unseal. *)

(** The signed quote structure returned by EATTEST. *)
type quote = {
  platform_measurement : bytes;
  enclave_measurement : bytes;
  user_data : bytes;
  platform_signature : bytes;  (** EK over platform measurement *)
  quote_signature : bytes;  (** AK over the whole body *)
}

(** [platform_certificate keys ~platform_measurement] — the EK
    signature over the platform measurement. Signing is deterministic
    and neither input changes after boot, so the platform issues it
    once, at boot, and passes it to every quote. *)
val platform_certificate : Keymgmt.t -> platform_measurement:bytes -> bytes

(** [make_quote keys ~platform_measurement ~platform_certificate
    ~enclave_measurement ~user_data] — the EATTEST service routine:
    one AK signature over the quote body, with [platform_certificate]
    (from {!platform_certificate} over the same measurement) carried
    as the platform signature. *)
val make_quote :
  Keymgmt.t ->
  platform_measurement:bytes ->
  platform_certificate:bytes ->
  enclave_measurement:bytes ->
  user_data:bytes ->
  quote

(** [make_quote_reference keys ~platform_measurement
    ~enclave_measurement ~user_data] signs both halves on every call
    (EK over the platform measurement, AK over the body). Retained as
    the reference: {!make_quote} must equal it byte for byte. *)
val make_quote_reference :
  Keymgmt.t -> platform_measurement:bytes -> enclave_measurement:bytes -> user_data:bytes -> quote

(** Wire encoding (what travels to the remote verifier). *)
val quote_to_bytes : quote -> bytes

(** Decode a wire quote; [None] on malformed input. *)
val quote_of_bytes : bytes -> quote option

(** [verify_quote ~ek ~ak q] — the remote verifier's check: both
    signatures valid under the published public keys. *)
val verify_quote :
  ek:Hypertee_crypto.Rsa.public -> ak:Hypertee_crypto.Rsa.public -> quote -> bool

(** Local attestation report: MAC over (verifier measurement,
    challenger measurement) under the report key. *)
type report = { verifier_measurement : bytes; challenger_measurement : bytes; mac : bytes }

(** [make_report keys ~verifier_measurement ~challenger_measurement]
    — the local-attestation service routine. *)
val make_report :
  Keymgmt.t -> verifier_measurement:bytes -> challenger_measurement:bytes -> report

(** Check a report MAC — succeeds only on the same platform. *)
val verify_report : Keymgmt.t -> report -> bool

(** [seal keys ~enclave_measurement data] -> sealed blob;
    [unseal] inverts it, [None] on tamper or wrong measurement. *)
val seal : Keymgmt.t -> enclave_measurement:bytes -> bytes -> bytes

(** Inverse of {!seal}; [None] on tamper or wrong measurement. *)
val unseal : Keymgmt.t -> enclave_measurement:bytes -> bytes -> bytes option
