//! A flat JSON object writer for the probe's one-line reports (the
//! orchestrator parses the last stdout line).

pub struct Report {
    fields: Vec<(String, String)>,
}

impl Report {
    pub fn new() -> Self {
        Report { fields: Vec::new() }
    }

    /// A number; non-finite values become `null` (JSON has no NaN).
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        let text = if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        };
        self.fields.push((key.to_string(), text));
        self
    }

    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.fields.push((key.to_string(), v.to_string()));
        self
    }

    pub fn text(&mut self, key: &str, v: &str) -> &mut Self {
        let quoted = serde_json::to_string(v).expect("a string serializes");
        self.fields.push((key.to_string(), quoted));
        self
    }

    /// A list of numbers (non-finite values become `null`).
    pub fn nums(&mut self, key: &str, items: &[f64]) -> &mut Self {
        let text: Vec<String> = items
            .iter()
            .map(|v| {
                if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".to_string()
                }
            })
            .collect();
        self.fields
            .push((key.to_string(), format!("[{}]", text.join(","))));
        self
    }

    pub fn list(&mut self, key: &str, items: &[String]) -> &mut Self {
        let quoted: Vec<String> = items
            .iter()
            .map(|s| serde_json::to_string(s).expect("a string serializes"))
            .collect();
        self.fields
            .push((key.to_string(), format!("[{}]", quoted.join(","))));
        self
    }

    pub fn print(&self) {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| {
                format!(
                    "{}:{v}",
                    serde_json::to_string(k).expect("a string serializes")
                )
            })
            .collect();
        println!("{{{}}}", body.join(","));
    }
}
