//! Minimal JSON emission for the experiment tables.
//!
//! The build is offline, so instead of serde we hand-roll the one JSON
//! shape we need: a pretty-printed array of experiment-table objects with
//! string-only leaves. The output is byte-compatible with what
//! `serde_json::to_string_pretty` produced for the previous derive, so
//! downstream consumers of `experiments_results.json` are unaffected.

use crate::experiments::ExperimentTable;
use gtgd_data::json::escape;

fn string_array(items: &[String], indent: &str) -> String {
    if items.is_empty() {
        return "[]".into();
    }
    let inner: Vec<String> = items
        .iter()
        .map(|s| format!("{indent}  \"{}\"", escape(s)))
        .collect();
    format!("[\n{}\n{indent}]", inner.join(",\n"))
}

/// Renders one table as a pretty-printed JSON object at the given
/// indentation depth.
pub fn table_to_json(t: &ExperimentTable, indent: &str) -> String {
    let i2 = format!("{indent}  ");
    let i3 = format!("{indent}    ");
    let rows: Vec<String> = t
        .rows
        .iter()
        .map(|r| format!("{i3}{}", string_array(r, &i3)))
        .collect();
    let rows_json = if rows.is_empty() {
        "[]".into()
    } else {
        format!("[\n{}\n{i2}]", rows.join(",\n"))
    };
    format!(
        "{indent}{{\n\
         {i2}\"id\": \"{}\",\n\
         {i2}\"title\": \"{}\",\n\
         {i2}\"claim\": \"{}\",\n\
         {i2}\"columns\": {},\n\
         {i2}\"rows\": {},\n\
         {i2}\"notes\": \"{}\"\n\
         {indent}}}",
        escape(&t.id),
        escape(&t.title),
        escape(&t.claim),
        string_array(&t.columns, &i2),
        rows_json,
        escape(&t.notes),
    )
}

/// Renders a list of tables as a pretty-printed JSON array.
pub fn tables_to_json(tables: &[ExperimentTable]) -> String {
    if tables.is_empty() {
        return "[]".into();
    }
    let items: Vec<String> = tables.iter().map(|t| table_to_json(t, "  ")).collect();
    format!("[\n{}\n]", items.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentTable {
        ExperimentTable {
            id: "E0".into(),
            title: "a \"quoted\" title".into(),
            claim: "line\nbreak".into(),
            columns: vec!["n".into(), "ms".into()],
            rows: vec![vec!["1".into(), "2.5".into()]],
            notes: String::new(),
        }
    }

    #[test]
    fn renders_valid_shape() {
        let json = tables_to_json(&[sample()]);
        assert!(json.starts_with("[\n"));
        assert!(json.contains("\"id\": \"E0\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("line\\nbreak"));
        // Balanced braces/brackets (no strings contain them in the sample).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_cases() {
        assert_eq!(tables_to_json(&[]), "[]");
        let mut t = sample();
        t.rows.clear();
        t.columns.clear();
        let json = tables_to_json(&[t]);
        assert!(json.contains("\"columns\": []"));
        assert!(json.contains("\"rows\": []"));
    }
}
