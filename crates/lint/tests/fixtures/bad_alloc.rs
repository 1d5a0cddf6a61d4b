//! hot-path-alloc fixture: a declared hot root allocating directly; a
//! cold sibling allocating freely stays clean.
pub struct BatchClassifier;

impl BatchClassifier {
    pub fn classify_batch(&mut self) -> Vec<u8> {
        let buf = Vec::new();
        let tag = format!("x");
        drop(tag);
        buf
    }

    pub fn cold_report(&self) -> Vec<u8> {
        Vec::new()
    }
}
