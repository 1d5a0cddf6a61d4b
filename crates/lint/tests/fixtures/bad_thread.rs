// Fixture: bespoke thread topology outside capture::engine.
use std::sync::mpsc::sync_channel;

fn shard_by_hand() {
    std::thread::spawn(|| {});
    std::thread::scope(|_s| {});
}

#[cfg(test)]
mod tests {
    #[test]
    fn threads_in_tests_are_fine() {
        std::thread::spawn(|| {}).join().ok();
    }
}
