//! Regenerate every figure and print all tables; with `--markdown` the
//! output is GitHub-markdown (used to refresh EXPERIMENTS.md), with
//! `--json` a machine-readable JSON array (for plotting).
type FigureFn = fn() -> Vec<experiments::Table>;

fn main() {
    let markdown = std::env::args().any(|a| a == "--markdown");
    let json = std::env::args().any(|a| a == "--json");
    let figures: Vec<(&str, FigureFn)> = vec![
        ("fig2", experiments::fig2_baseline_edge::run_figure),
        ("fig3", experiments::fig3_scalability::run_figure),
        ("fig4", experiments::fig4_cloud::run_figure),
        ("fig6", experiments::fig6_scatterpp_edge::run_figure),
        ("fig7", experiments::fig7_scaling::run_figure),
        ("fig8", experiments::fig8_sidecar::run_figure),
        ("fig9", experiments::fig9_network::run_figure),
        ("fig10", experiments::fig10_jitter::run_figure),
        ("fig11", experiments::fig11_hybrid::run_figure),
        ("fig12", experiments::fig12_timeline::run_figure),
        ("headline", experiments::headline::run_figure),
        ("ablation", experiments::ablation::run_figure),
        (
            "latency_breakdown",
            experiments::latency_breakdown::run_figure,
        ),
    ];
    let mut json_tables = Vec::new();
    for (name, f) in figures {
        eprintln!("running {name}...");
        for table in f() {
            if json {
                json_tables.push(table);
            } else if markdown {
                println!("{}", table.render_markdown());
            } else {
                println!("{}", table.render());
            }
        }
    }
    if json {
        let rendered: Vec<String> = json_tables.iter().map(|t| t.render_json()).collect();
        println!("[{}]", rendered.join(",\n"));
    }
}
