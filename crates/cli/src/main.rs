//! The `medmaker` binary. See [`medmaker_cli`] for the full description.

use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match medmaker_cli::parse_args(args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let result = medmaker_cli::run(&cfg, &mut out);
    let _ = out.flush();
    match result {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(if cfg.check { 2 } else { 1 });
        }
    }
}
