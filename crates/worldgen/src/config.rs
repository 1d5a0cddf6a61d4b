//! Loadable world configurations: serialize the calibrated world table to
//! JSON and load custom worlds back — the mechanism for running the
//! pipeline against *your* hypothesis about a country's censorship
//! apparatus rather than ours.
//!
//! The schema is an array of country objects; see
//! [`world_to_json`] output (or `tamperscope world-spec --full`) for a
//! complete, loadable example.

use crate::countries::Country;
use crate::domains::Category;
use crate::json::{Json, JsonError};
use crate::policy::{CountrySpec, Policy, ProtoFilter};
use std::fmt;
use tamper_middlebox::Vendor;

/// World-configuration loading error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// What was wrong, with enough context to find it.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "world config error: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

impl From<JsonError> for ConfigError {
    fn from(e: JsonError) -> ConfigError {
        ConfigError {
            message: e.to_string(),
        }
    }
}

/// Most countries a world may hold: a client address carries its
/// country index in one octet.
pub(crate) const MAX_COUNTRIES: usize = 256;
/// Most ASes a country may have: a client address carries the AS-local
/// index (0..=249) in one octet.
pub(crate) const MAX_AS_PER_COUNTRY: usize = 250;

fn err<T>(message: impl Into<String>) -> Result<T, ConfigError> {
    Err(ConfigError {
        message: message.into(),
    })
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

fn rates_to_json(rates: &[(Vendor, f64)]) -> Json {
    Json::Arr(
        rates
            .iter()
            .map(|(v, r)| {
                Json::Obj(vec![
                    ("vendor".into(), Json::Str(v.as_config_str())),
                    ("rate".into(), Json::Num(*r)),
                ])
            })
            .collect(),
    )
}

fn categories_to_json(entries: &[(Category, f64)], value_key: &str) -> Json {
    Json::Arr(
        entries
            .iter()
            .map(|(c, v)| {
                Json::Obj(vec![
                    ("category".into(), Json::Str(c.label().to_owned())),
                    (value_key.into(), Json::Num(*v)),
                ])
            })
            .collect(),
    )
}

fn policy_to_json(p: &Policy) -> Json {
    let filter = match p.dpi_filter {
        ProtoFilter::Any => "any",
        ProtoFilter::HttpOnly => "http-only",
        ProtoFilter::TlsOnly => "tls-only",
    };
    Json::Obj(vec![
        ("syn_rules".into(), rates_to_json(&p.syn_rules)),
        ("dpi_blanket".into(), Json::Num(p.dpi_blanket)),
        ("dpi_filter".into(), Json::Str(filter.to_owned())),
        ("dpi_enforce".into(), Json::Num(p.dpi_enforce)),
        ("dpi_mix".into(), rates_to_json(&p.dpi_mix)),
        ("fw_rules".into(), rates_to_json(&p.fw_rules)),
        (
            "coverage".into(),
            categories_to_json(&p.coverage, "coverage"),
        ),
        (
            "affinity".into(),
            categories_to_json(&p.affinity, "multiplier"),
        ),
        (
            "overblock_substrings".into(),
            Json::Arr(
                p.overblock_substrings
                    .iter()
                    .map(|s| Json::Str(s.clone()))
                    .collect(),
            ),
        ),
        ("diurnal_amp".into(), Json::Num(p.diurnal_amp)),
        ("weekend_drop".into(), Json::Num(p.weekend_drop)),
    ])
}

/// Serialize a world to the loadable JSON schema.
pub fn world_to_json(world: &[CountrySpec]) -> String {
    let arr = Json::Arr(
        world
            .iter()
            .map(|spec| {
                let c = &spec.country;
                Json::Obj(vec![
                    ("code".into(), Json::Str(c.code.clone())),
                    ("weight".into(), Json::Num(c.weight)),
                    (
                        "tz_offset_hours".into(),
                        Json::Num(f64::from(c.tz_offset_hours)),
                    ),
                    ("ipv6_share".into(), Json::Num(c.ipv6_share)),
                    ("n_ases".into(), Json::Num(c.n_ases as f64)),
                    ("centralization".into(), Json::Num(c.centralization)),
                    ("http_share".into(), Json::Num(c.http_share)),
                    ("ipv6_tamper_mult".into(), Json::Num(c.ipv6_tamper_mult)),
                    ("syn_payload_mult".into(), Json::Num(c.syn_payload_mult)),
                    ("policy".into(), policy_to_json(&spec.policy)),
                ])
            })
            .collect(),
    );
    arr.to_compact_string()
}

// ---------------------------------------------------------------------------
// Deserialization
// ---------------------------------------------------------------------------

fn get_f64(obj: &Json, key: &str, ctx: &str) -> Result<f64, ConfigError> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| ConfigError {
            message: format!("{ctx}: missing or non-numeric \"{key}\""),
        })
}

fn get_f64_or(obj: &Json, key: &str, default: f64) -> f64 {
    obj.get(key).and_then(Json::as_f64).unwrap_or(default)
}

fn rates_from_json(v: Option<&Json>, ctx: &str) -> Result<Vec<(Vendor, f64)>, ConfigError> {
    let Some(arr) = v.and_then(Json::as_array) else {
        return Ok(Vec::new());
    };
    let mut out = Vec::with_capacity(arr.len());
    for item in arr {
        let vendor_str = item
            .get("vendor")
            .and_then(Json::as_str)
            .ok_or_else(|| ConfigError {
                message: format!("{ctx}: rule missing \"vendor\""),
            })?;
        let vendor = Vendor::parse_config(vendor_str).ok_or_else(|| ConfigError {
            message: format!("{ctx}: unknown vendor \"{vendor_str}\""),
        })?;
        let rate = get_f64(item, "rate", ctx)?;
        if !(rate >= 0.0 && rate.is_finite()) {
            return err(format!("{ctx}: rate {rate} must be a non-negative number"));
        }
        out.push((vendor, rate));
    }
    Ok(out)
}

fn categories_from_json(
    v: Option<&Json>,
    value_key: &str,
    ctx: &str,
) -> Result<Vec<(Category, f64)>, ConfigError> {
    let Some(arr) = v.and_then(Json::as_array) else {
        return Ok(Vec::new());
    };
    let mut out = Vec::with_capacity(arr.len());
    for item in arr {
        let label = item
            .get("category")
            .and_then(Json::as_str)
            .ok_or_else(|| ConfigError {
                message: format!("{ctx}: entry missing \"category\""),
            })?;
        let category = Category::from_label(label).ok_or_else(|| ConfigError {
            message: format!("{ctx}: unknown category \"{label}\""),
        })?;
        out.push((category, get_f64(item, value_key, ctx)?));
    }
    Ok(out)
}

fn policy_from_json(v: Option<&Json>, ctx: &str) -> Result<Policy, ConfigError> {
    let Some(obj) = v else {
        return Ok(Policy {
            diurnal_amp: 0.45,
            weekend_drop: 0.15,
            dpi_enforce: 0.9,
            ..Default::default()
        });
    };
    let filter = match obj.get("dpi_filter").and_then(Json::as_str) {
        None | Some("any") => ProtoFilter::Any,
        Some("http-only") => ProtoFilter::HttpOnly,
        Some("tls-only") => ProtoFilter::TlsOnly,
        Some(other) => return err(format!("{ctx}: unknown dpi_filter \"{other}\"")),
    };
    let overblock: Vec<String> = obj
        .get("overblock_substrings")
        .and_then(Json::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(|i| i.as_str().map(str::to_owned))
                .collect()
        })
        .unwrap_or_default();
    Ok(Policy {
        syn_rules: rates_from_json(obj.get("syn_rules"), ctx)?,
        dpi_blanket: get_f64_or(obj, "dpi_blanket", 0.0),
        dpi_filter: filter,
        dpi_enforce: get_f64_or(obj, "dpi_enforce", 0.9),
        dpi_mix: {
            // dpi_mix entries use "rate" as a relative weight. A country
            // whose DPI can fire needs at least one vendor; default to
            // request-dropping.
            let mut mix = rates_from_json(obj.get("dpi_mix"), ctx)?;
            let coverage_present = obj
                .get("coverage")
                .and_then(Json::as_array)
                .is_some_and(|a| !a.is_empty());
            let dpi_fires = get_f64_or(obj, "dpi_blanket", 0.0) > 0.0
                || coverage_present
                || !overblock.is_empty();
            if mix.is_empty() && dpi_fires {
                mix = vec![(Vendor::DataDropAll, 1.0)];
            }
            mix
        },
        fw_rules: rates_from_json(obj.get("fw_rules"), ctx)?,
        coverage: categories_from_json(obj.get("coverage"), "coverage", ctx)?,
        affinity: {
            // Multipliers scale domain-interest weights, which must stay
            // positive for the domain sampler.
            let affinity = categories_from_json(obj.get("affinity"), "multiplier", ctx)?;
            if let Some((_, m)) = affinity.iter().find(|(_, m)| !(*m > 0.0 && m.is_finite())) {
                return err(format!(
                    "{ctx}: affinity multiplier {m} must be a positive number"
                ));
            }
            affinity
        },
        overblock_substrings: overblock,
        diurnal_amp: get_f64_or(obj, "diurnal_amp", 0.45),
        weekend_drop: get_f64_or(obj, "weekend_drop", 0.15),
    })
}

/// Load a world from the JSON schema produced by [`world_to_json`].
pub fn world_from_json(text: &str) -> Result<Vec<CountrySpec>, ConfigError> {
    let root = Json::parse(text)?;
    let Some(entries) = root.as_array() else {
        return err("top level must be an array of countries");
    };
    if entries.is_empty() {
        return err("world must contain at least one country");
    }
    if entries.len() > MAX_COUNTRIES {
        return err(format!(
            "world has {} countries; at most {MAX_COUNTRIES} fit the client address plan",
            entries.len()
        ));
    }
    let mut world = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let code = entry
            .get("code")
            .and_then(Json::as_str)
            .ok_or_else(|| ConfigError {
                message: format!("country #{i}: missing \"code\""),
            })?
            .to_owned();
        let ctx = format!("country {code}");
        let weight = get_f64(entry, "weight", &ctx)?;
        if weight <= 0.0 {
            return err(format!("{ctx}: weight must be positive"));
        }
        let n_ases = match entry.get("n_ases") {
            None => 4,
            Some(v) => match v.as_u64() {
                Some(n) if (1..=MAX_AS_PER_COUNTRY as u64).contains(&n) => n as usize,
                _ => {
                    return err(format!(
                        "{ctx}: \"n_ases\" must be an integer in 1..={MAX_AS_PER_COUNTRY}"
                    ))
                }
            },
        };
        let tz_offset_hours = match entry.get("tz_offset_hours") {
            None => 0,
            Some(v) => match v.as_i64() {
                Some(h) if (-12..=14).contains(&h) => h as i32,
                _ => {
                    return err(format!(
                        "{ctx}: \"tz_offset_hours\" must be an integer in -12..=14"
                    ))
                }
            },
        };
        let country = Country {
            code,
            weight,
            tz_offset_hours,
            ipv6_share: get_f64_or(entry, "ipv6_share", 0.25),
            n_ases,
            centralization: get_f64_or(entry, "centralization", 0.5),
            http_share: get_f64_or(entry, "http_share", 0.25),
            ipv6_tamper_mult: get_f64_or(entry, "ipv6_tamper_mult", 1.0),
            syn_payload_mult: get_f64_or(entry, "syn_payload_mult", 1.0),
        };
        let policy = policy_from_json(entry.get("policy"), &ctx)?;
        world.push(CountrySpec { country, policy });
    }
    Ok(world)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::world_spec;

    #[test]
    fn calibrated_world_round_trips() {
        let world = world_spec();
        let text = world_to_json(&world);
        let loaded = world_from_json(&text).expect("round trip");
        assert_eq!(loaded.len(), world.len());
        for (a, b) in world.iter().zip(&loaded) {
            assert_eq!(a.country.code, b.country.code);
            assert!((a.country.weight - b.country.weight).abs() < 1e-12);
            assert_eq!(a.country.n_ases, b.country.n_ases);
            assert_eq!(a.policy.dpi_filter, b.policy.dpi_filter);
            assert!((a.policy.dpi_blanket - b.policy.dpi_blanket).abs() < 1e-12);
            assert_eq!(a.policy.syn_rules, b.policy.syn_rules);
            assert_eq!(a.policy.dpi_mix, b.policy.dpi_mix);
            assert_eq!(a.policy.fw_rules, b.policy.fw_rules);
            assert_eq!(a.policy.coverage, b.policy.coverage);
            assert_eq!(a.policy.overblock_substrings, b.policy.overblock_substrings);
        }
    }

    #[test]
    fn minimal_country_uses_defaults() {
        let world = world_from_json(r#"[{"code":"XX","weight":1}]"#).expect("minimal world loads");
        assert_eq!(world.len(), 1);
        assert_eq!(world[0].country.code, "XX");
        assert_eq!(world[0].country.n_ases, 4);
        assert_eq!(world[0].policy.dpi_blanket, 0.0);
        assert!(world[0].policy.syn_rules.is_empty());
    }

    #[test]
    fn custom_policy_parses() {
        let text = r#"[{
            "code": "ZZ", "weight": 2, "tz_offset_hours": -5,
            "http_share": 0.4,
            "policy": {
                "syn_rules": [{"vendor": "SynDropAll", "rate": 0.1}],
                "dpi_blanket": 0.3,
                "dpi_filter": "http-only",
                "dpi_mix": [
                    {"vendor": "DataDropRst(2)", "rate": 0.7},
                    {"vendor": "GfwMixed", "rate": 0.3}
                ],
                "coverage": [{"category": "Adult Themes", "coverage": 0.5}],
                "overblock_substrings": ["wn.com"]
            }
        }]"#;
        let world = world_from_json(text).unwrap();
        let p = &world[0].policy;
        assert_eq!(p.dpi_filter, ProtoFilter::HttpOnly);
        assert_eq!(p.syn_rules, vec![(Vendor::SynDropAll, 0.1)]);
        assert_eq!(
            p.dpi_mix,
            vec![(Vendor::DataDropRst { n: 2 }, 0.7), (Vendor::GfwMixed, 0.3)]
        );
        assert_eq!(p.coverage, vec![(Category::AdultThemes, 0.5)]);
        assert_eq!(p.overblock_substrings, vec!["wn.com".to_owned()]);
    }

    #[test]
    fn bad_configs_rejected_with_context() {
        for (text, needle) in [
            (r#"{"code":"X"}"#, "must be an array"),
            (r#"[]"#, "at least one"),
            (r#"[{"weight":1}]"#, "missing \"code\""),
            (r#"[{"code":"X","weight":0}]"#, "positive"),
            (
                r#"[{"code":"X","weight":1,"policy":{"syn_rules":[{"vendor":"Bogus","rate":0.1}]}}]"#,
                "unknown vendor",
            ),
            (
                r#"[{"code":"X","weight":1,"policy":{"syn_rules":[{"vendor":"PshRst","rate":-0.5}]}}]"#,
                "non-negative",
            ),
            (
                r#"[{"code":"X","weight":1,"policy":{"coverage":[{"category":"Nope","coverage":0.5}]}}]"#,
                "unknown category",
            ),
            (
                r#"[{"code":"X","weight":1,"policy":{"dpi_filter":"sideways"}}]"#,
                "unknown dpi_filter",
            ),
            ("[{", "JSON error"),
            (
                r#"[{"code":"X","weight":1,"policy":{"affinity":[{"category":"News","multiplier":-1}]}}]"#,
                "affinity multiplier -1 must be a positive number",
            ),
            (
                r#"[{"code":"X","weight":1,"policy":{"affinity":[{"category":"News","multiplier":0}]}}]"#,
                "affinity multiplier 0 must be a positive number",
            ),
            (
                r#"[{"code":"X","weight":1,"tz_offset_hours":2147483647}]"#,
                "\"tz_offset_hours\" must be an integer in -12..=14",
            ),
            (
                r#"[{"code":"X","weight":1,"tz_offset_hours":2.5}]"#,
                "\"tz_offset_hours\" must be an integer in -12..=14",
            ),
            (
                r#"[{"code":"X","weight":1,"tz_offset_hours":1e308}]"#,
                "\"tz_offset_hours\" must be an integer in -12..=14",
            ),
            (
                r#"[{"code":"X","weight":1,"tz_offset_hours":-13}]"#,
                "\"tz_offset_hours\" must be an integer in -12..=14",
            ),
        ] {
            let e = world_from_json(text).expect_err(text);
            assert!(
                e.to_string().contains(needle),
                "{text}: expected \"{needle}\" in \"{e}\""
            );
        }
    }

    /// A world of `n` minimal countries, each with the given `n_ases`
    /// JSON value.
    fn world_of(n: usize, n_ases: &str) -> String {
        let countries: Vec<String> = (0..n)
            .map(|i| format!(r#"{{"code":"C{i}","weight":1,"n_ases":{n_ases}}}"#))
            .collect();
        format!("[{}]", countries.join(","))
    }

    #[test]
    fn as_count_outside_the_address_plan_is_rejected() {
        for n_ases in ["0", "251", "100000000", "2.5", "-1", "\"4\""] {
            let e = world_from_json(&world_of(1, n_ases)).expect_err(n_ases);
            assert_eq!(
                e.to_string(),
                "world config error: country C0: \"n_ases\" must be an integer in 1..=250",
                "n_ases {n_ases}"
            );
        }
        for n_ases in ["1", "250"] {
            let world = world_from_json(&world_of(1, n_ases)).expect(n_ases);
            assert_eq!(world[0].country.n_ases.to_string(), n_ases);
        }
    }

    #[test]
    fn more_countries_than_the_address_plan_holds_is_rejected() {
        let e = world_from_json(&world_of(257, "4")).expect_err("257 countries");
        assert_eq!(
            e.to_string(),
            "world config error: world has 257 countries; at most 256 fit the client address plan"
        );
        assert_eq!(world_from_json(&world_of(256, "4")).unwrap().len(), 256);
    }
}
