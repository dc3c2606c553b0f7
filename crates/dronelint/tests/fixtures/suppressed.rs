// Fixture: inline suppressions. Scanned with the pretend path
// crates/vdc/src/suppressed.rs.
pub static mut TICKS: u64 = 0; // dronelint:allow(R5, written once before any thread starts)

// dronelint:allow(R5, test hook; reset by every run before its first read)
pub static HOOK: std::sync::Mutex<u32> = std::sync::Mutex::new(0);
// The static below is deliberately NOT suppressed: an allow
// directive covers exactly one code line.
pub static HITS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
