//! Hand-rolled validator for the `oasys-dataset/2` record schema.
//!
//! This is the executable form of `DATASET.md`: `cargo xtask
//! smoke-dataset` and the integration tests run every generated record
//! through [`validate_record`], so a drift between the spec and the
//! renderer fails a gate instead of silently shipping malformed data.

use oasys_telemetry::json::Json;

/// Validates one parsed dataset record against `oasys-dataset/2`.
///
/// # Errors
///
/// A human-readable description of the first violation found.
pub fn validate_record(record: &Json) -> Result<(), String> {
    let obj = record.as_obj().ok_or("record is not a JSON object")?;
    require_str(record, "schema", Some("oasys-dataset"))?;
    let version = require_num(record, "v")?;
    if version != 2.0 {
        return Err(format!("unsupported record version {version}"));
    }
    let id = require_num(record, "id")?;
    if id.fract() != 0.0 || id < 0.0 {
        return Err(format!("\"id\" must be a non-negative integer, got {id}"));
    }

    let spec = obj.get("spec").ok_or("missing \"spec\"")?;
    require_str(spec, "label", None)?;
    let fields = spec
        .get("fields")
        .and_then(Json::as_obj)
        .ok_or("\"spec.fields\" must be an object")?;
    if fields.is_empty() {
        return Err("\"spec.fields\" must not be empty".into());
    }
    for (key, value) in fields {
        if value.as_num().is_none() {
            return Err(format!("spec field \"{key}\" is not a number"));
        }
    }

    let tech = obj.get("tech").ok_or("missing \"tech\"")?;
    require_str(tech, "base", None)?;
    require_str(tech, "label", None)?;
    let corner = tech.get("corner").ok_or("missing \"tech.corner\"")?;
    let speed = require_str(corner, "speed", None)?;
    if !matches!(speed, "slow" | "typ" | "fast") {
        return Err(format!("corner speed \"{speed}\" is not slow|typ|fast"));
    }
    require_num(corner, "temp_c")?;
    let supply = require_num(corner, "supply_scale")?;
    if supply <= 0.0 {
        return Err(format!("supply_scale must be positive, got {supply}"));
    }

    let mc = obj.get("mc").ok_or("missing \"mc\"")?;
    let mc_index = require_num(mc, "index")?;
    if mc_index.fract() != 0.0 || mc_index < 0.0 {
        return Err("\"mc.index\" must be a non-negative integer".into());
    }
    require_hex64(mc, "seed")?;
    require_num(mc, "avt_mv_um")?;
    require_num(mc, "akp_pct_um")?;

    require_hex64(record, "fingerprint")?;

    let outcome = require_str(record, "outcome", None)?;
    match outcome {
        "ok" => {
            let ok = obj
                .get("ok")
                .ok_or("outcome \"ok\" without \"ok\" object")?;
            require_str(ok, "style", None)?;
            let area = require_num(ok, "area_um2")?;
            if area <= 0.0 || area.is_nan() {
                return Err(format!("\"ok.area_um2\" must be positive, got {area}"));
            }
            if let Some(meets) = ok.get("meets_spec") {
                meets
                    .as_bool()
                    .ok_or("\"ok.meets_spec\" must be a boolean")?;
            }
            if let Some(design) = ok.get("design") {
                let netlist = design
                    .get("netlist")
                    .and_then(Json::as_str)
                    .ok_or("\"ok.design.netlist\" must be a string")?;
                if !netlist.to_lowercase().contains(".end") {
                    return Err("netlist is not a terminated SPICE deck".into());
                }
                let predicted = design
                    .get("predicted")
                    .and_then(Json::as_obj)
                    .ok_or("\"ok.design.predicted\" must be an object")?;
                for key in PREDICTED_FIELDS {
                    if !predicted.contains_key(key) {
                        return Err(format!("predicted datasheet missing \"{key}\""));
                    }
                }
                if let Some(measured) = design.get("measured") {
                    let measured = measured
                        .as_obj()
                        .ok_or("\"ok.design.measured\" must be an object")?;
                    for key in measured.keys() {
                        if !MEASURED_FIELDS.contains(&key.as_str()) {
                            return Err(format!("unknown measured field \"{key}\""));
                        }
                    }
                }
            }
        }
        "infeasible" => {}
        "failed" => {
            let failure = obj
                .get("failure")
                .ok_or("outcome \"failed\" without \"failure\" object")?;
            let kind = require_str(failure, "kind", None)?;
            if !matches!(kind, "panic" | "timeout" | "error") {
                return Err(format!(
                    "failure kind \"{kind}\" is not panic|timeout|error"
                ));
            }
            require_str(failure, "message", None)?;
        }
        other => return Err(format!("outcome \"{other}\" is not ok|infeasible|failed")),
    }

    if let Some(trace) = obj.get("trace") {
        let entries = trace.as_arr().ok_or("\"trace\" must be an array")?;
        for entry in entries {
            require_str(entry, "style", None)?;
        }
    }

    for key in obj.keys() {
        if !TOP_LEVEL_FIELDS.contains(&key.as_str()) {
            return Err(format!("unknown top-level field \"{key}\""));
        }
    }
    Ok(())
}

/// Every key `oasys-dataset/2` permits at the record's top level.
const TOP_LEVEL_FIELDS: [&str; 11] = [
    "schema",
    "v",
    "id",
    "spec",
    "tech",
    "mc",
    "fingerprint",
    "outcome",
    "ok",
    "failure",
    "trace",
];

/// The predicted-datasheet keys every feasible design must carry.
const PREDICTED_FIELDS: [&str; 10] = [
    "dc_gain_db",
    "unity_gain_hz",
    "phase_margin_deg",
    "slew_v_per_s",
    "swing_neg_v",
    "swing_pos_v",
    "offset_v",
    "power_w",
    "cmrr_db",
    "noise_v_rthz",
];

/// The measured-datasheet keys a record may carry (all optional — the
/// bench omits quantities it could not measure).
const MEASURED_FIELDS: [&str; 10] = [
    "dc_gain_db",
    "unity_gain_hz",
    "phase_margin_deg",
    "slew_v_per_s",
    "swing_symmetric_v",
    "offset_v",
    "power_w",
    "cmrr_db",
    "noise_v_rthz",
    "psrr_db",
];

fn require_str<'a>(value: &'a Json, key: &str, expect: Option<&str>) -> Result<&'a str, String> {
    let s = value
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string \"{key}\""))?;
    if let Some(expect) = expect {
        if s != expect {
            return Err(format!("\"{key}\" must be \"{expect}\", got \"{s}\""));
        }
    }
    Ok(s)
}

fn require_num(value: &Json, key: &str) -> Result<f64, String> {
    value
        .get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("missing or non-numeric \"{key}\""))
}

fn require_hex64(value: &Json, key: &str) -> Result<(), String> {
    let s = value
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string \"{key}\""))?;
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("\"{key}\" must be 16 hex digits, got \"{s}\""));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasys_telemetry::json;

    fn ok_record() -> String {
        concat!(
            "{\"schema\":\"oasys-dataset\",\"v\":2,\"id\":7,",
            "\"spec\":{\"label\":\"sample-000007\",\"fields\":{\"dc_gain_db\":60}},",
            "\"tech\":{\"base\":\"cmos-5um\",\"label\":\"cmos-5um @ slow_85c_100pct\",",
            "\"corner\":{\"speed\":\"slow\",\"temp_c\":85,\"supply_scale\":1}},",
            "\"mc\":{\"index\":0,\"seed\":\"0000000000000001\",\"avt_mv_um\":0,\"akp_pct_um\":0},",
            "\"fingerprint\":\"00000000deadbeef\",",
            "\"outcome\":\"ok\",\"ok\":{\"style\":\"two-stage\",\"area_um2\":1234.5}}"
        )
        .to_owned()
    }

    #[test]
    fn accepts_a_well_formed_record() {
        let record = json::parse(&ok_record()).unwrap();
        validate_record(&record).unwrap();
    }

    #[test]
    fn rejects_wrong_schema_version_and_outcome() {
        for (needle, replacement, expect) in [
            ("\"v\":2", "\"v\":1", "version"),
            ("\"outcome\":\"ok\"", "\"outcome\":\"maybe\"", "outcome"),
            ("\"speed\":\"slow\"", "\"speed\":\"cold\"", "speed"),
            ("\"seed\":\"0000000000000001\"", "\"seed\":\"zz\"", "hex"),
        ] {
            let text = ok_record().replace(needle, replacement);
            let record = json::parse(&text).unwrap();
            let err = validate_record(&record).unwrap_err();
            assert!(err.to_lowercase().contains(expect), "{needle} -> {err}");
        }
    }

    #[test]
    fn rejects_unknown_top_level_fields() {
        let text = ok_record().replace("\"id\":7,", "\"id\":7,\"when\":\"now\",");
        let record = json::parse(&text).unwrap();
        let err = validate_record(&record).unwrap_err();
        assert!(err.contains("when"), "{err}");
    }

    #[test]
    fn failed_records_need_a_failure_object() {
        let text = ok_record().replace(
            "\"outcome\":\"ok\",\"ok\":{\"style\":\"two-stage\",\"area_um2\":1234.5}",
            "\"outcome\":\"failed\"",
        );
        let record = json::parse(&text).unwrap();
        assert!(validate_record(&record).is_err());
    }
}
