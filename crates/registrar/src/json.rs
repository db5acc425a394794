//! JSON import/export for the front end.
//!
//! The paper's front end (§3, Fig. 2) exchanges structured data with the
//! back-end; catalogs and degree rules serialize to JSON so a UI — or
//! another process — can consume them without the registrar text format.

use coursenav_catalog::{Catalog, DegreeRequirement};

/// Serializes a catalog to pretty-printed JSON.
pub fn catalog_to_json(catalog: &Catalog) -> serde_json::Result<String> {
    serde_json::to_string_pretty(catalog)
}

/// Deserializes a catalog from JSON produced by [`catalog_to_json`].
pub fn catalog_from_json(json: &str) -> serde_json::Result<Catalog> {
    serde_json::from_str(json)
}

/// Serializes a degree requirement to JSON.
pub fn degree_to_json(degree: &DegreeRequirement) -> serde_json::Result<String> {
    serde_json::to_string_pretty(degree)
}

/// Deserializes a degree requirement from JSON.
pub fn degree_from_json(json: &str) -> serde_json::Result<DegreeRequirement> {
    serde_json::from_str(json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::brandeis_cs;
    use coursenav_catalog::CourseSet;

    #[test]
    fn catalog_roundtrips_through_json() {
        let data = brandeis_cs();
        let json = catalog_to_json(&data.catalog).unwrap();
        let back = catalog_from_json(&json).unwrap();
        assert_eq!(back.len(), data.catalog.len());
        assert!(
            back.workload_sums_exact(),
            "whole hours, recomputed on load"
        );
        for (a, b) in data.catalog.courses().zip(back.courses()) {
            assert_eq!(a.code(), b.code());
            assert_eq!(a.prereq(), b.prereq());
            assert_eq!(a.offered(), b.offered());
            assert_eq!(a.workload(), b.workload());
        }
        // Derived state survives: eligibility agrees on a sample query.
        let (start, _) = data.horizon;
        assert_eq!(
            data.catalog.eligible(&CourseSet::EMPTY, start),
            back.eligible(&CourseSet::EMPTY, start)
        );
    }

    #[test]
    fn degree_roundtrips_through_json() {
        let data = brandeis_cs();
        let degree = data.degree.unwrap();
        let json = degree_to_json(&degree).unwrap();
        let back = degree_from_json(&json).unwrap();
        assert_eq!(degree, back);
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(catalog_from_json("{not json").is_err());
        assert!(degree_from_json("[]").is_err());
    }
}
