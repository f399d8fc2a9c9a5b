"""The paper's motivating example (§2.1, Figs. 1/3/6): healthcare trials.

Clinical-trial sensor data with PII, a sensor view for data scientists, UDF
feature extraction over binary blobs in sandboxes, and a UDF calling an
external air-quality service through governed egress.

Run with: ``python examples/healthcare_fgac.py``
"""

from repro.connect.client import col, udf
from repro.platform import Workspace
from repro.sandbox import net
from repro.sandbox.policy import SandboxPolicy


def build_workspace() -> tuple[Workspace, object]:
    ws = Workspace()
    ws.add_user("admin", admin=True)
    ws.add_user("dr_grey")
    ws.add_user("ds_sam")
    ws.add_group("clinicians", ["dr_grey"])
    ws.add_group("data_science", ["ds_sam"])
    ws.catalog.create_catalog("health", owner="admin")
    ws.catalog.create_schema("health.trials", owner="admin")

    cluster = ws.create_standard_cluster(name="shared-research")
    admin = cluster.connect("admin")
    admin.sql(
        "CREATE TABLE health.trials.raw_data_table ("
        "patient_id int, patient_name string, zip string, "
        "sensor_blob binary, reading float)"
    )
    admin.sql(
        "INSERT INTO health.trials.raw_data_table VALUES "
        "(1, 'Ann Smith', '94105', CAST('001101' AS binary), 0.42),"
        "(2, 'Bo Chen',   '10001', CAST('011000' AS binary), 0.77),"
        "(3, 'Cy Patel',  '94105', CAST('110111' AS binary), 0.91)"
    )
    # The dedicated sensor view filters out PII (Fig. 1).
    admin.sql(
        "CREATE VIEW health.trials.sensor_view AS "
        "SELECT patient_id, zip, sensor_blob, reading "
        "FROM health.trials.raw_data_table"
    )
    for group in ("clinicians", "data_science"):
        admin.sql(f"GRANT USE CATALOG ON health TO {group}")
        admin.sql(f"GRANT USE SCHEMA ON health.trials TO {group}")
    admin.sql("GRANT SELECT ON health.trials.raw_data_table TO clinicians")
    admin.sql("GRANT SELECT ON health.trials.sensor_view TO data_science")
    # Cell-level protection on the raw table itself (Fig. 3).
    admin.sql(
        "ALTER TABLE health.trials.raw_data_table ALTER COLUMN patient_name "
        "SET MASK (CASE WHEN is_account_group_member('clinicians') "
        "THEN patient_name ELSE 'REDACTED' END)"
    )
    return ws, cluster


def main() -> None:
    ws, cluster = build_workspace()

    print("=== Clinician view (member of 'clinicians') ===")
    grey = cluster.connect("dr_grey")
    grey.sql(
        "SELECT patient_id, patient_name, reading FROM health.trials.raw_data_table"
    ).show()

    print("\n=== Data-science view (PII filtered by the sensor view) ===")
    sam = cluster.connect("ds_sam")
    sam.table("health.trials.sensor_view").show()

    print("\n=== Feature extraction UDF, sandboxed (Fig. 1) ===")

    @udf("float")
    def extract_feature(blob):
        bits = blob.decode()
        return bits.count("1") / len(bits)

    sam.table("health.trials.sensor_view").select(
        col("patient_id"), extract_feature(col("sensor_blob")).alias("feature")
    ).show()
    stats = cluster.backend.dispatcher.stats
    print(f"sandbox cold starts: {stats.cold_starts}, warm reuses: "
          f"{stats.warm_acquisitions}")

    print("\n=== External-service UDF with governed egress (Fig. 6) ===")
    net.register_service("example.aqi.com", lambda path, _: {"yesterday": 17.0})

    @udf("float")
    def resolve_zip_to_air_quality(zip_code):
        resp = net.http_post(f"http://example.aqi.com/zip/{zip_code}")
        return float(resp["yesterday"])

    try:
        # First attempt: default locked-down sandbox → egress denied.
        try:
            sam.table("health.trials.sensor_view").select(
                resolve_zip_to_air_quality(col("zip")).alias("aqi")
            ).collect()
        except Exception as exc:  # noqa: BLE001 - demo output
            print(f"locked-down sandbox blocked egress: {exc}")

        # The workspace admin allow-lists the AQI host.
        cluster.backend.cluster_manager.default_policy = (
            SandboxPolicy().with_egress("example.aqi.com")
        )
        sam2 = cluster.connect("ds_sam")
        sam2.table("health.trials.sensor_view").select(
            col("zip"), resolve_zip_to_air_quality(col("zip")).alias("aqi")
        ).show()
    finally:
        net.unregister_service("example.aqi.com")
    ws.shutdown()


if __name__ == "__main__":
    main()
